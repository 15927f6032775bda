"""The Brownian point-mass composition: expansion, norm law, and the
integrability experiment against an exponential-decay kernel."""

import math

import pytest

from chaoscalc import (
    ChaosVector,
    TestFunctionXi,
    donsker_delta,
    donsker_norm_series,
    donsker_process,
    donsker_vmbv_experiment,
    gnorm,
    make_grid,
    s_transform,
    truncate,
)
from chaoscalc.donsker import DonskerSpec, donsker_norm_limit
from chaoscalc.kernels import LayeredKernel

GRID = make_grid(1.0, 8)


def test_leading_term_prefactor():
    d0 = donsker_delta(1.0, 0, GRID)
    assert d0.orders() == [0]
    assert d0.expectation() == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)


def test_even_parity():
    d = donsker_delta(0.5, 10, GRID)
    assert all(n % 2 == 0 for n in d.orders())


def test_rejects_time_zero_and_misalignment():
    with pytest.raises(ValueError):
        donsker_delta(0.0, 4, GRID)
    with pytest.raises(ValueError):
        donsker_delta(0.3, 4, GRID)  # not cell-aligned on a 8-cell unit grid


def test_norm_series_leading_term_and_errors():
    assert donsker_norm_series(1.0, 1.0, 0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)
    with pytest.raises(ValueError):
        donsker_norm_series(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        donsker_norm_series(1.0, -0.5, 10)


def test_norm_series_scaling_in_t():
    for lam in (0.5, 1.0, 2.0):
        a = donsker_norm_series(1.0, lam, 20)
        b = donsker_norm_series(2.0, lam, 20)
        assert b == pytest.approx(a / 2.0, rel=1e-14)


def test_series_matches_tensor_build_exactly():
    """On aligned grids the series partial sum equals the squared weighted
    norm of the layered tensor build, order for order."""
    for t, lam, N in [(1.0, 1.0, 40), (0.5, 0.7, 12), (0.25, 2.0, 8)]:
        d = donsker_delta(t, N, GRID)
        series = donsker_norm_series(t, lam, N)
        tensor = gnorm(d, -lam) ** 2
        assert tensor == pytest.approx(series, rel=1e-12)


def test_closed_form_value_at_unit_time():
    # frozen oracle: 1 / (2 pi sqrt(1 - e^{-4})) = 0.16063...
    want = 1.0 / (2.0 * math.pi * math.sqrt(1.0 - math.exp(-4.0)))
    assert want == pytest.approx(0.16063, abs=5e-6)
    got = donsker_norm_series(1.0, 1.0, 40)
    assert got == pytest.approx(want, abs=1e-10)
    tensor = gnorm(donsker_delta(1.0, 40, GRID), -1.0) ** 2
    assert tensor == pytest.approx(want, abs=1e-5)
    assert donsker_norm_limit(1.0, 1.0) == pytest.approx(want, rel=1e-15)


def test_one_over_t_law_on_aligned_times():
    N, lam = 16, 0.8
    values = []
    for t in (0.25, 0.5, 0.75, 1.0):
        values.append(gnorm(donsker_delta(t, N, GRID), -lam) ** 2 * t)
    for v in values[1:]:
        assert v == pytest.approx(values[0], rel=1e-12)


def test_truncation_tail_small():
    lam = 1.0
    full = gnorm(donsker_delta(1.0, 40, GRID), -lam)
    cut = gnorm(truncate(donsker_delta(1.0, 40, GRID), 12), -lam)
    assert abs(full - cut) < 1e-6


def test_transform_approximates_gaussian_density():
    """Pairing against the exponential vector of a test direction gives the
    normal density at the direction's integral, within the truncation tail."""
    g = make_grid(1.0, 8)
    xi = TestFunctionXi.from_values(g, [0.5] * 8)  # integral = 0.5
    y = 0.5
    t = 1.0
    N = 12
    d = donsker_delta(t, N, g)
    got = s_transform(d, xi)
    want = math.exp(-y * y / (2 * t)) / math.sqrt(2 * math.pi * t)
    # alternating series with factorially decaying terms: next-term bound
    next_term = (y * y / (2 * t)) ** (N + 1) / math.factorial(N + 1)
    bound = next_term / math.sqrt(2 * math.pi * t)
    assert abs(got - want) <= 2 * bound + 1e-15


def test_spec_validation():
    spec = DonskerSpec(t=1.0, N=8, eps=0.25)
    spec.validate(GRID)
    with pytest.raises(ValueError):
        DonskerSpec(t=1.0, N=8, eps=1.5).validate(GRID)
    with pytest.raises(ValueError):
        DonskerSpec(t=0.5, N=8, eps=0.0).validate(GRID)


def test_process_cut():
    proc = donsker_process(GRID, 6, 0.25)
    assert proc.at(0).is_zero()
    assert proc.at(1).is_zero()
    assert not proc.at(2).is_zero()
    with pytest.raises(ValueError):
        donsker_process(GRID, 6, 0.0)


@pytest.mark.parametrize("M, N, eps", [(8, 0, 0.125), (16, 6, 0.25), (32, 12, 0.5), (8, 4, 1.0), (64, 160, 0.25)])
def test_process_cells_are_the_point_mass_bit_for_bit(M, N, eps):
    """The held stacks give, at every cell, ``donsker_delta`` at the cell's
    left endpoint (zero below the cut), in the same storage forms and to the
    last bit; at N = 160 the top coefficients underflow on some cells."""
    grid = make_grid(1.0, M)
    proc = donsker_process(grid, N, eps)
    assert proc.stacks is not None
    eps_cell = grid.snap_down(eps)
    for j in range(M):
        got = proc.at(j)
        want = donsker_delta(grid.t_left(j), N, grid) if j >= eps_cell else ChaosVector.zero(grid)
        assert got.orders() == want.orders()
        for n, comp in want.components.items():
            mine = got.components[n]
            assert type(mine) is type(comp)
            if isinstance(comp, LayeredKernel):
                assert mine.layers.tobytes() == comp.layers.tobytes()
            else:
                assert mine.entries == comp.entries
    with pytest.raises(ValueError):
        donsker_process(grid, -1, eps)


def test_experiment_bounds_are_the_norm_series_per_cell():
    g = make_grid(1.0, 16)
    alpha, N = 0.8, 10
    rep = donsker_vmbv_experiment(alpha, 0.25, 1.0, N, [0.5, 1.0], g)
    for lam, bounds in rep.bound_by_lambda.items():
        assert bounds[0] == math.inf
        for s_cell, b in enumerate(bounds[1:], start=1):
            s_left = g.t_left(s_cell)
            assert b == 4.0 * donsker_norm_series(s_left, lam, N) * (1.0 - math.exp(-alpha * (1.0 - s_left)))


def test_experiment_domination_and_finiteness():
    g = make_grid(1.0, 64)
    rep = donsker_vmbv_experiment(1.0, 0.25, 1.0, 20, [0.5, 1.0, 2.0], g)
    for row in rep.rows:
        assert row.finite
        assert row.dominated
        assert row.a3_max <= row.bound_max * (1 + 1e-12)
    assert rep.sign_pattern_ok


def test_experiment_flags_divergence_at_small_cut():
    g = make_grid(1.0, 16)
    rep = donsker_vmbv_experiment(1.0, g.step, 1.0, 8, [1.0], g)
    assert rep.diverges_at_zero_cut
    # near the cut the per-cell values blow up like 1/s: scaled by s they
    # stay of one magnitude over the first cells while the raw values grow
    a3 = rep.a3_by_lambda[1.0]
    scaled = [a3[s] * g.t_left(s) for s in range(1, 5)]
    assert max(scaled) / min(scaled) < 6.0
    assert a3[1] / a3[4] > 6.0


def test_experiment_degenerate_alpha_zero():
    g = make_grid(1.0, 16)
    rep = donsker_vmbv_experiment(0.0, 0.25, 1.0, 6, [1.0], g)
    row = rep.rows[0]
    assert row.finite
    # constant kernel: the measure vanishes, so the per-cell values are zero
    assert row.a3_max == 0.0


def test_experiment_rejects_bad_cut():
    g = make_grid(1.0, 16)
    with pytest.raises(ValueError):
        donsker_vmbv_experiment(1.0, 1.0, 1.0, 6, [1.0], g)

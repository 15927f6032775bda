"""Pathwise evaluation and statistical cross-checks of the algebra."""

import itertools
import math

import numpy as np
import pytest

from chaoscalc import (
    ChaosProcess,
    ChaosVector,
    FbmKernel,
    LayeredKernel,
    OuKernel,
    TimeSlotSymKernel,
    SymKernel,
    evaluate,
    integrate_plain,
    ito_oracle,
    make_grid,
    mc_moments,
    pointwise,
    sample_noise,
    sym_store,
    wick,
)
from chaoscalc.donsker import donsker_process
from chaoscalc.kernels import multiplicities, multiplicity
from chaoscalc.montecarlo import evaluate_block, sample_noise_block
from chaoscalc.testing import random_chaos_process, random_chaos_vector, rng_from
from dense_ref import evaluate_block_per_entry

GRID = make_grid(1.0, 8)


def brownian_process(grid) -> ChaosProcess:
    return ChaosProcess.from_function(
        grid,
        lambda j: (
            ChaosVector.brownian_at(grid, grid.t_left(j))
            if j > 0
            else ChaosVector.zero(grid)
        ),
    )


def test_noise_reproducible_and_seed_sensitive():
    a = sample_noise(GRID, 42)
    b = sample_noise(GRID, 42)
    c = sample_noise(GRID, 43)
    assert np.array_equal(a.xi, b.xi)
    assert not np.array_equal(a.xi, c.xi)
    assert a.xi.shape == (GRID.cells,)


def test_noise_statistics():
    block = sample_noise_block(GRID, 100_000, 7)
    assert abs(float(np.mean(block[:, 0]))) < 3 * 10 ** -2.5
    total = math.sqrt(GRID.step) * block.sum(axis=1)
    assert abs(float(np.var(total)) - GRID.horizon) / GRID.horizon < 0.05


def test_evaluate_constant_and_brownian():
    omega = sample_noise(GRID, 3)
    c = ChaosVector.deterministic(GRID, 2.5)
    assert evaluate(c, omega) == 2.5
    b = ChaosVector.brownian_at(GRID, 1.0)
    want = float(np.sum(omega.increments()))
    assert evaluate(b, omega) == pytest.approx(want, rel=1e-12)


def test_evaluate_linear():
    rng = rng_from(11)
    omega = sample_noise(GRID, 5)
    a = random_chaos_vector(GRID, 3, rng)
    b = random_chaos_vector(GRID, 3, rng)
    lhs = evaluate(a.scale(2.0).add(b.scale(-1.5)), omega)
    rhs = 2.0 * evaluate(a, omega) - 1.5 * evaluate(b, omega)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_pointwise_product_evaluates_pathwise():
    rng = rng_from(13)
    for seed in range(5):
        omega = sample_noise(GRID, 100 + seed)
        a = random_chaos_vector(GRID, 2, rng)
        b = random_chaos_vector(GRID, 2, rng)
        prod = pointwise(a, b)
        lhs = evaluate(prod, omega)
        rhs = evaluate(a, omega) * evaluate(b, omega)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_hermite_square_identity_pathwise():
    f = ChaosVector.brownian_at(GRID, 1.0)
    sq = pointwise(f, f)
    for seed in range(5):
        omega = sample_noise(GRID, seed)
        assert evaluate(sq, omega) == pytest.approx(evaluate(f, omega) ** 2, rel=1e-11)


def test_wick_expectation_factorizes_exactly():
    rng = rng_from(17)
    a = random_chaos_vector(GRID, 2, rng)
    b = random_chaos_vector(GRID, 2, rng)
    assert wick(a, b).expectation() == pytest.approx(
        a.expectation() * b.expectation(), rel=1e-12
    )


def test_isometry_monte_carlo():
    rng = rng_from(19)
    block = sample_noise_block(GRID, 100_000, 23)
    for n in (1, 2, 3):
        k = None
        from chaoscalc.testing import random_sym_kernel

        k = random_sym_kernel(GRID, n, rng, n_entries=6)
        vec = ChaosVector.from_kernel(k)
        vals = evaluate_block(vec, block)
        want = math.factorial(n) * k.norm_sq()
        got = float(np.mean(vals ** 2))
        se = float(np.std(vals ** 2)) / math.sqrt(len(vals))
        assert abs(got - want) < 3 * se


def test_orthogonality_across_orders():
    rng = rng_from(29)
    block = sample_noise_block(GRID, 100_000, 31)
    f = ChaosVector.from_kernel(sym_store(1, [((0,), 1.0), ((3,), -0.5)], GRID))
    h = ChaosVector.from_kernel(sym_store(2, [((1, 2), 1.0)], GRID))
    prods = evaluate_block(f, block) * evaluate_block(h, block)
    se = float(np.std(prods)) / math.sqrt(len(prods))
    assert abs(float(np.mean(prods))) < 3 * se


def test_ito_oracle_constant_gives_endpoint():
    proc = ChaosProcess.constant(GRID, ChaosVector.deterministic(GRID, 1.0))
    omega = sample_noise(GRID, 37)
    want = float(np.sum(omega.increments()))
    assert ito_oracle(proc, omega) == pytest.approx(want, rel=1e-12)


def test_ito_oracle_rejects_non_adapted():
    bad = ChaosProcess.from_function(
        GRID, lambda j: ChaosVector.from_kernel(SymKernel.indicator(GRID, GRID.t_left(j), 1.0))
    )
    with pytest.raises(ValueError):
        ito_oracle(bad, sample_noise(GRID, 1))


def test_adapted_integral_matches_ito_pathwise():
    """Unit kernel + adapted integrand: the pipeline value evaluates to the
    forward sum on every path."""
    g = make_grid(1.0, 16)
    kernel = FbmKernel(H=0.5)
    for proc in (brownian_process(g), random_chaos_process(g, 2, rng_from(41), adapted=True)):
        value = integrate_plain(proc, kernel, 1.0).value
        for seed in range(20):
            omega = sample_noise(g, 1000 + seed)
            lhs = evaluate(value, omega)
            rhs = ito_oracle(proc, omega)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_mc_moments_deterministic():
    m = mc_moments(ChaosVector.deterministic(GRID, 4.0), 1000, 3)
    assert m.mean == 4.0
    assert m.variance == 0.0
    with pytest.raises(ValueError):
        mc_moments(ChaosVector.deterministic(GRID, 1.0), 1, 3)


def test_mc_moments_needs_three_samples():
    """Two samples leave one in each leave-one-out variance, which has no
    spread to divide by."""
    vec = ChaosVector.brownian_at(GRID, 1.0)
    with pytest.raises(ValueError, match="at least 3 samples"):
        mc_moments(vec, 2, 3)
    m = mc_moments(vec, 3, 3)
    assert all(math.isfinite(v) for v in (m.mean, m.variance, m.se_mean, m.se_variance))


def test_mc_moments_brownian_variance():
    m = mc_moments(ChaosVector.brownian_at(GRID, 1.0), 100_000, 5)
    assert abs(m.mean) < 3 * m.se_mean
    assert abs(m.variance - 1.0) < 3 * m.se_variance


def test_mc_moments_estimate_chaos_statistics():
    rng = rng_from(43)
    vec = random_chaos_vector(GRID, 2, rng)
    m = mc_moments(vec, 200_000, 11)
    assert abs(m.mean - vec.expectation()) < 4 * m.se_mean
    want_var = vec.gnorm(0.0) ** 2 - vec.expectation() ** 2
    assert abs(m.variance - want_var) < 4 * m.se_variance


def test_driver_variance_ou_closed_form():
    g = make_grid(1.0, 16)
    k = OuKernel(alpha=1.0)
    proc = ChaosProcess.constant(g, ChaosVector.deterministic(g, 1.0))
    x1 = integrate_plain(proc, k, 1.0).value
    m = mc_moments(x1, 100_000, 13)
    want = (1.0 - math.exp(-2.0)) / 2.0
    assert abs(m.mean) < 3 * m.se_mean
    assert abs(m.variance - want) < 3 * m.se_variance


def test_driver_variance_fbm_is_unit():
    g = make_grid(1.0, 16)
    k = FbmKernel(H=0.7)
    proc = ChaosProcess.constant(g, ChaosVector.deterministic(g, 1.0))
    x1 = integrate_plain(proc, k, 1.0).value
    m = mc_moments(x1, 100_000, 17)
    # variance target 1 with a 5% quadrature allowance at this resolution
    assert abs(m.variance - 1.0) < 3 * m.se_variance + 0.05


def _rel_to_oracle(vec, block):
    got = evaluate_block(vec, block)
    want = evaluate_block_per_entry(vec, block)
    assert got.shape == want.shape == (block.shape[0],)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_evaluate_block_matches_per_entry_oracle():
    rng = rng_from(53)
    block = sample_noise_block(GRID, 200, 59)
    # three cells for up to 40 entries per order: most tuples repeat a cell
    for _ in range(4):
        vec = random_chaos_vector(GRID, 4, rng, n_entries=40, cells=[1, 4, 6])
        assert max(vec.components) == 4
        assert _rel_to_oracle(vec, block) <= 1e-13
    vec = random_chaos_vector(GRID, 4, rng, n_entries=60)
    assert _rel_to_oracle(vec, block) <= 1e-13

    layers = rng.standard_normal(GRID.cells)
    layered = ChaosVector(GRID, {0: SymKernel.scalar(GRID, 0.5),
                                 3: LayeredKernel(3, GRID, layers),
                                 2: random_chaos_vector(GRID, 2, rng).component(2)})
    assert _rel_to_oracle(layered, block) <= 1e-13

    # order 22 crosses the int64 range of 22!: multiplicities are Python ints
    g2 = make_grid(1.0, 2)
    high = ChaosVector(g2, {22: LayeredKernel(22, g2, np.array([0.3, -0.2]))})
    assert _rel_to_oracle(high, sample_noise_block(g2, 50, 71)) <= 1e-13

    constant = ChaosVector.deterministic(GRID, -1.75)
    assert np.array_equal(evaluate_block(constant, block), np.full(200, -1.75))
    assert np.array_equal(evaluate_block(ChaosVector.zero(GRID), block), np.zeros(200))
    assert evaluate_block(vec, block[:0]).shape == (0,)

    single = block[:1]
    vec = random_chaos_vector(GRID, 4, rng, n_entries=40, cells=[0, 2, 3])
    assert _rel_to_oracle(vec, single) <= 1e-13
    assert evaluate(vec, sample_noise(GRID, 61)) == pytest.approx(
        float(evaluate_block_per_entry(vec, sample_noise(GRID, 61).xi[None, :])[0]),
        rel=1e-13, abs=1e-13)


def test_evaluate_block_point_mass_integral():
    """The Skorohod step on the layered point-mass process yields time-slot
    components; they evaluate through their sparse form."""
    g = make_grid(1.0, 4)
    value = integrate_plain(donsker_process(g, 2, 0.25), OuKernel(alpha=1.0), 1.0).value
    assert any(isinstance(k, TimeSlotSymKernel) for k in value.components.values())
    dense = ChaosVector(g, {n: k if isinstance(k, SymKernel) else k.to_sparse()
                            for n, k in value.components.items()})
    block = sample_noise_block(g, 300, 67)
    got = evaluate_block(value, block)
    assert np.array_equal(got, evaluate_block(dense, block))
    assert _rel_to_oracle(value, block) <= 1e-13


def test_multiplicities_match_scalar():
    for n in range(7):
        tuples = list(itertools.combinations_with_replacement(range(5), n))
        arr = np.array(tuples, dtype=np.int64).reshape(len(tuples), n)
        got = multiplicities(arr)
        assert got.dtype == np.int64
        assert got.tolist() == [multiplicity(t) for t in tuples]
    # 22! overflows int64; the multiplicities themselves still fit
    g2 = make_grid(1.0, 2)
    tuples, _ = LayeredKernel(22, g2, np.array([1.0, -2.0])).to_sparse().arrays()
    assert tuples.shape == (23, 22)
    got = multiplicities(tuples)
    assert [int(m) for m in got] == [multiplicity(tuple(t)) for t in tuples.tolist()]
    assert int(got.max()) == math.comb(22, 11)


@pytest.mark.parametrize("n", range(26))
def test_multiplicities_and_scalar_multiplicity_agree_through_order_25(n):
    """Every order from 0 to 25, int64 through order 20 and Python integers
    above: random rows, a row of one cell repeated and a row of distinct
    cells, against ``n! / prod(count!)`` from the cell counts."""
    rng = rng_from(300 + n)
    rows = [sorted(rng.integers(0, 4, size=n).tolist()) for _ in range(20)]
    rows += [[3] * n, list(range(n))]
    got = multiplicities(np.array(rows, dtype=np.int64).reshape(len(rows), n))
    assert got.dtype == (np.int64 if n <= 20 else object)
    want = [math.factorial(n) // math.prod(math.factorial(row.count(c)) for c in set(row))
            for row in rows]
    assert [int(m) for m in got] == want
    assert [multiplicity(tuple(row)) for row in rows] == want
    assert want[-2:] == [1, math.factorial(n)]


def test_arrays_canonical_order():
    k = SymKernel(2, GRID, {(3, 4): 1.0, (0, 5): 2.0, (1, 1): 3.0, (0, 2): 4.0})
    tuples, coef = k.arrays()
    assert tuples.tolist() == [[0, 2], [0, 5], [1, 1], [3, 4]]
    assert coef.tolist() == [4.0, 2.0, 3.0, 1.0]
    tuples, coef = SymKernel.scalar(GRID, 2.5).arrays()
    assert tuples.shape == (1, 0) and coef.tolist() == [2.5]

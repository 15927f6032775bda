"""Volterra kernels: evaluation, Stieltjes cell measures, the kernel action,
and integrability diagnostics."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, gammaln

from chaoscalc import (
    ChaosProcess,
    ChaosVector,
    FbmKernel,
    OuKernel,
    TableKernel,
    TurbulenceKernel,
    assumption_report,
    kernel_eval,
    kernel_from_config,
    kernel_measure,
    kg_apply,
    make_grid,
    pointwise,
)
from chaoscalc.chaos import order_weighted_sum
from chaoscalc.testing import random_chaos_process, random_chaos_vector, rng_from
from chaoscalc.volterra import _fbm_c

GRID = make_grid(1.0, 8)


def test_ou_eval():
    k = OuKernel(alpha=2.0)
    assert kernel_eval(k, 1.0, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-15)
    with pytest.raises(ValueError):
        kernel_eval(k, 0.5, 0.5)
    with pytest.raises(ValueError):
        kernel_eval(k, 0.4, 0.5)
    with pytest.raises(ValueError):
        OuKernel(alpha=0.0)


def test_fbm_reduces_to_unit_at_half():
    k = FbmKernel(H=0.5)
    for (t, s) in [(1.0, 0.0), (0.7, 0.3), (1.0, 0.99)]:
        assert kernel_eval(k, t, s) == 1.0


def test_turbulence_matches_ou_at_nu_one():
    k = TurbulenceKernel(alpha=1.0, nu=1.0)
    ou = OuKernel(alpha=1.0)
    for (t, s) in [(1.0, 0.2), (0.9, 0.5)]:
        assert kernel_eval(k, t, s) == pytest.approx(kernel_eval(ou, t, s), rel=1e-15)
    with pytest.raises(ValueError):
        TurbulenceKernel(alpha=1.0, nu=0.5)


def test_singularity_metadata_and_clipping():
    sing = TurbulenceKernel(alpha=1.0, nu=0.8)
    assert sing.singular_at_diagonal
    val, clipped = sing.evaluate_clipped(0.50001, 0.5, GRID.step)
    assert clipped
    smooth = TurbulenceKernel(alpha=1.0, nu=2.0)
    assert not smooth.singular_at_diagonal
    _, clipped = smooth.evaluate_clipped(0.50001, 0.5, GRID.step)
    assert not clipped
    assert FbmKernel(H=0.3).singular_at_diagonal
    assert not FbmKernel(H=0.7).singular_at_diagonal


def test_measure_telescopes_exactly():
    k = OuKernel(alpha=1.3)
    s = 0.0625
    mw = kernel_measure(k, GRID, s, 0.25, 0.875)
    total = sum(mw.weights)
    want = math.exp(-k.alpha * (0.875 - s)) - math.exp(-k.alpha * (0.25 - s))
    assert total == pytest.approx(want, rel=1e-14)
    # monotone kernel: total variation equals |endpoint difference|
    assert mw.total_variation == pytest.approx(abs(want), rel=1e-14)


def test_measure_constant_table_kernel_is_zero():
    k = TableKernel.from_array([[1.0] * 9 for _ in range(9)], 1.0)
    mw = kernel_measure(k, GRID, 0.0625, 0.25, 0.875)
    assert all(w == 0.0 for w in mw.weights)
    assert mw.total_variation == 0.0


def test_measure_interval_validation():
    k = OuKernel(alpha=1.0)
    with pytest.raises(ValueError):
        kernel_measure(k, GRID, 0.5, 0.25, 0.875)
    with pytest.raises(ValueError):
        kernel_measure(k, GRID, 0.0, 0.5, 0.5)


def test_turbulence_total_variation_vs_quadrature():
    """On a monotone stretch the exact cell increments must match the
    quadrature of |d/du g| to quadrature accuracy."""
    k = TurbulenceKernel(alpha=1.0, nu=2.0)
    g = make_grid(1.0, 64)
    s = 0.125
    u_lo, u_hi = 0.25, 0.875  # u - s <= 0.75 < 1 = peak location: monotone up
    mw = kernel_measure(k, g, s, u_lo, u_hi)
    oracle, err = quad(lambda u: abs(k.measure_density(u, s)), u_lo, u_hi, epsabs=1e-12)
    assert mw.total_variation == pytest.approx(oracle, abs=max(1e-6, 10 * err))


def test_kg_constant_kernel_is_identity_on_values():
    rng = rng_from(5)
    proc = random_chaos_process(GRID, 2, rng)
    out = kg_apply(proc, FbmKernel(H=0.5), 1.0)
    for s in range(GRID.cells):
        diff = out.at(s).sub(proc.at(s))
        assert diff.gnorm(0.0) < 1e-14


def test_kg_constant_process_ou():
    proc = ChaosProcess.constant(GRID, ChaosVector.deterministic(GRID, 1.0))
    k = OuKernel(alpha=1.5)
    out = kg_apply(proc, k, 1.0)
    for s in range(GRID.cells):
        want = math.exp(-k.alpha * (1.0 - GRID.t_mid(s)))
        assert out.at(s).expectation() == pytest.approx(want, rel=1e-13)


def test_kg_closed_form_ramp_ou():
    """Deterministic ramp against the antiderivative oracle.

    With values at midpoints, both terms match
    s e^{-(1-s)} + int_s^1 (u-s) (-e^{-(u-s)}) du at s = cell midpoint to the
    quadrature order of the cell sums.
    """
    g = make_grid(1.0, 256)
    proc = ChaosProcess.from_function(g, lambda j: ChaosVector.deterministic(g, g.t_mid(j)))
    k = OuKernel(alpha=1.0)
    out = kg_apply(proc, k, 1.0)

    def oracle(s):
        # int_s^1 (u-s)(-e^{-(u-s)}) du = -(1 - e^{-(1-s)}(2-s)) + (1-s)... via
        # antiderivative: int x e^{-x} dx = 1 - e^{-d}(1+d) with d = 1-s
        d = 1.0 - s
        stieltjes = -(1.0 - math.exp(-d) * (1.0 + d))
        return s * math.exp(-d) + stieltjes

    worst = 0.0
    for s in range(0, g.cells - 1, 5):
        got = out.at(s).expectation()
        worst = max(worst, abs(got - oracle(g.t_mid(s))))
    assert worst < 1e-4


def test_kg_is_linear():
    rng = rng_from(15)
    a = random_chaos_process(GRID, 2, rng)
    b = random_chaos_process(GRID, 2, rng)
    k = OuKernel(alpha=0.8)
    combo = ChaosProcess.from_function(
        GRID, lambda j: a.at(j).scale(2.0).add(b.at(j).scale(-3.0))
    )
    lhs = kg_apply(combo, k, 1.0)
    ka = kg_apply(a, k, 1.0)
    kb = kg_apply(b, k, 1.0)
    for s in range(GRID.cells):
        want = ka.at(s).scale(2.0).add(kb.at(s).scale(-3.0))
        assert lhs.at(s).sub(want).gnorm(0.0) < 1e-12


def test_kg_commutes_with_constant_test_factor():
    rng = rng_from(25)
    proc = random_chaos_process(GRID, 2, rng)
    phi = random_chaos_vector(GRID, 2, rng)
    k = OuKernel(alpha=1.0)
    prod_proc = ChaosProcess.from_function(GRID, lambda j: pointwise(phi, proc.at(j)))
    lhs = kg_apply(prod_proc, k, 1.0)
    rhs = kg_apply(proc, k, 1.0)
    for s in range(GRID.cells):
        want = pointwise(phi, rhs.at(s))
        num = lhs.at(s).sub(want).gnorm(0.0)
        den = max(want.gnorm(0.0), 1.0)
        assert num / den < 1e-12


def test_kg_norm_chain_bound():
    """Triangle + Cauchy-Schwarz chain with the exact cell weights."""

    rng = rng_from(35)
    proc = random_chaos_process(GRID, 2, rng)
    k = OuKernel(alpha=1.2)
    lam = 0.7
    out = kg_apply(proc, k, 1.0)
    t_cell = GRID.cells
    from chaoscalc.volterra import _stieltjes_weights

    for s in range(t_cell - 1):
        g_ts = kernel_eval(k, 1.0, GRID.t_mid(s))
        mw = _stieltjes_weights(k, GRID, s, t_cell)
        tv = mw.total_variation
        quad_sum = sum(
            abs(w) * proc.at(u).sub(proc.at(s)).gnorm(-lam) ** 2 for u, w in mw.items()
        )
        bound = abs(g_ts) * proc.at(s).gnorm(-lam) + math.sqrt(tv) * math.sqrt(quad_sum)
        assert out.at(s).gnorm(-lam) <= bound * (1 + 1e-10)


def test_fbm_covariance_reproduction():
    g = make_grid(1.0, 512)
    pairs = [(1.0, 0.5), (1.0, 0.25), (0.75, 0.5)]
    for H in (0.6, 0.7, 0.8):
        k = FbmKernel(H=H)
        for (t, s) in pairs:
            u_cells = range(g.cell(s))
            acc = 0.0
            for u in u_cells:
                mid = g.t_mid(u)
                acc += kernel_eval(k, t, mid) * kernel_eval(k, s, mid)
            acc *= g.step
            exact = 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))
            assert abs(acc - exact) / exact < 0.05


def _fbm_by_quad(H: float, t: float, s: float) -> float:
    """The rough kernel by adaptive quadrature after the substitution
    ``u = s + v^2``, which removes the endpoint power singularity."""
    c = math.sqrt(2.0 * H * gamma(1.5 - H)) / math.sqrt(gamma(H + 0.5) * gamma(2.0 - 2.0 * H))
    span = math.sqrt(t - s)
    if H > 0.5:
        intval, _ = quad(lambda v: 2.0 * v ** (2.0 * H - 2.0) * (s + v * v) ** (H - 0.5),
                         0.0, span, epsabs=0.0, epsrel=1e-9, limit=200)
        return c * (H - 0.5) * s ** (0.5 - H) * intval
    intval, _ = quad(lambda v: 2.0 * v ** (2.0 * H - 2.0) * (1.0 - (s / (s + v * v)) ** (0.5 - H)),
                     0.0, span, epsabs=0.0, epsrel=1e-9, limit=200)
    return c * ((t - s) ** (H - 0.5) + (0.5 - H) * intval)


# at H = 0.1 the oracle's integrand cancels in 1 - (s/u)^0.4 near v = 0 and
# quad warns of roundoff; its value still serves at the 1e-9 tolerance
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("H", [0.1, 0.3, 0.7, 0.9])
@pytest.mark.parametrize("cells", [16, 64, 256, 1024])
def test_fbm_kernel_matches_adaptive_quadrature(H, cells):
    """The composite Gauss rule agrees with adaptive quadrature at node and
    midpoint ``s``: next to the diagonal, at the first cells (where the
    smooth factor is nearest its singularity at 0) and in between."""
    k = FbmKernel(H=H)
    h = 1.0 / cells
    for i in sorted({1, 2, cells // 2, cells}):
        for j in sorted({0, 1, i // 2, i - 1}):
            for s in (j * h, (j + 0.5) * h):
                if 0.0 < s < i * h:
                    want = _fbm_by_quad(H, i * h, s)
                    assert kernel_eval(k, i * h, s) == pytest.approx(want, rel=1e-9, abs=0.0), (i, s)


def test_fbm_constant_matches_scipy_gamma():
    for H in np.linspace(0.01, 0.99, 99):
        want = math.sqrt(2.0 * H * gamma(1.5 - H)) / math.sqrt(gamma(H + 0.5) * gamma(2.0 - 2.0 * H))
        assert _fbm_c(H) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_log_space_order_weights_match_gammaln():
    """Above the log-space guard the weight of order n is exp(log n! + 2 lam n);
    the log n! it carries agrees with scipy's gammaln to 1e-14 relative."""
    lam = -2.0
    for n in range(31, 301):
        log_n_fact = math.log(order_weighted_sum([n], [1.0], lam)) - 2.0 * lam * n
        assert log_n_fact == pytest.approx(gammaln(n + 1), rel=1e-14, abs=0.0), n


def test_fbm_exact_cancellation_pair():
    # t=1, s=0.5: target value 1/2 for any H
    H = 0.7
    exact = 0.5 * (1.0 + 0.5 ** (2 * H) - 0.5 ** (2 * H))
    assert exact == 0.5


def test_assumption_report_constant_process():
    proc = ChaosProcess.constant(GRID, ChaosVector.deterministic(GRID, 1.0))
    k = OuKernel(alpha=1.0)
    rep = assumption_report(proc, k, 1.0, 1.0)
    assert all(v == 0.0 for v in rep.a3)
    assert rep.b5 == 0.0
    assert rep.all_finite()
    assert rep.failing_assumption() is None


def test_assumption_report_b4_closed_form_bound():
    rng = rng_from(45)
    proc = random_chaos_process(GRID, 2, rng)
    k = OuKernel(alpha=1.0)
    lam = 0.5
    rep = assumption_report(proc, k, lam, 1.0)
    sup_norm_sq = max(proc.at(s).gnorm_sq(-lam) for s in range(GRID.cells))
    bound = sup_norm_sq * (1.0 - math.exp(-2 * k.alpha * 1.0)) / (2 * k.alpha)
    # midpoint cell sum vs the exact integral: allow the quadrature margin
    assert rep.b4 <= bound * (1 + 0.02)


def test_kernel_from_config_round_trip():
    for cfg in (
        {"kind": "ou", "alpha": 1.5},
        {"kind": "turbulence", "alpha": 1.0, "nu": 1.5},
        {"kind": "fbm", "H": 0.7},
    ):
        k = kernel_from_config(cfg)
        assert k.to_config() == cfg
    tk = kernel_from_config({"kind": "table", "values": [[0.0, 0.0], [1.0, 0.0]]}, horizon=1.0)
    assert isinstance(tk, TableKernel)
    with pytest.raises(ValueError):
        kernel_from_config({"kind": "nope"})

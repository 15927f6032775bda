"""The four integral variants, their consistency oracles, and the exact
structural properties (decomposition, linearity, localization, pull-out,
stability)."""

import json
import math
from collections import Counter

import numpy as np
import pytest

import chaoscalc.donsker as donsker_mod
import chaoscalc.stacked as stacked_mod
import chaoscalc.vmbv as vmbv_mod
from chaoscalc import (
    ChaosProcess,
    ChaosVector,
    FbmKernel,
    IndependenceError,
    IntegrabilityError,
    LayeredKernel,
    OuKernel,
    StabilityLawError,
    SymKernel,
    TestFunctionXi,
    TruncationOverflowError,
    chaos_formula_oracle,
    donsker_vmbv_experiment,
    integrate_plain,
    integrate_sigma,
    integrate_strongind,
    integrate_wick,
    kernel_eval,
    kg_apply,
    make_grid,
    pointwise,
    s_transform,
    s_transform_oracle,
    skorohod,
    stability_suite,
    wick,
)
from chaoscalc.cli import main
from chaoscalc.config import parse_config
from chaoscalc.testing import random_chaos_process, random_chaos_vector, rng_from

from dense_ref import compare_dense, dense_skorohod, dense_vector

GRID = make_grid(1.0, 8)
UNIT_KERNEL = FbmKernel(H=0.5)


def rel_error(a: ChaosVector, b: ChaosVector) -> float:
    worst = 0.0
    for n in set(a.orders()) | set(b.orders()):
        ka, kb = a.component(n), b.component(n)
        diff = ka.add(kb.scale(-1.0))
        denom = max(math.sqrt(ka.norm_sq()), math.sqrt(kb.norm_sq()), 1.0)
        worst = max(worst, math.sqrt(diff.norm_sq()) / denom)
    return worst


def brownian_process(grid) -> ChaosProcess:
    return ChaosProcess.from_function(
        grid,
        lambda j: (
            ChaosVector.brownian_at(grid, grid.t_left(j))
            if j > 0
            else ChaosVector.zero(grid)
        ),
    )


def test_plain_deterministic_integrand_gives_driver_value():
    proc = ChaosProcess.constant(GRID, ChaosVector.deterministic(GRID, 1.0))
    k = OuKernel(alpha=1.0)
    res = integrate_plain(proc, k, 1.0)
    assert res.drift_part.is_zero()
    comp = res.value.component(1)
    for j in range(GRID.cells):
        want = kernel_eval(k, 1.0, GRID.t_mid(j))
        assert comp.entries[(j,)] == pytest.approx(want, rel=1e-13)


def test_decomposition_holds_everywhere():
    rng = rng_from(201)
    for _ in range(10):
        proc = random_chaos_process(GRID, 2, rng)
        res = integrate_plain(proc, OuKernel(alpha=1.0), 1.0)
        assert rel_error(res.value, res.skorohod_part.add(res.drift_part)) < 1e-14


def test_expectation_identity():
    """The Skorohod part never carries an order-0 component, so the mean of
    the integral is the drift part's constant term."""
    rng = rng_from(203)
    for _ in range(10):
        proc = random_chaos_process(GRID, 3, rng)
        res = integrate_plain(proc, OuKernel(alpha=0.7), 1.0)
        assert 0 not in res.skorohod_part.orders()
        assert res.expectation() == pytest.approx(res.drift_part.expectation(), rel=1e-13)


def test_adapted_unit_kernel_drift_vanishes():
    proc = brownian_process(GRID)
    res = integrate_plain(proc, UNIT_KERNEL, 1.0)
    assert res.drift_part.is_zero()
    assert rel_error(res.value, res.skorohod_part) == 0.0


def test_brownian_integrand_matches_oracle():
    proc = brownian_process(GRID)
    res = integrate_plain(proc, UNIT_KERNEL, 1.0)
    oracle = chaos_formula_oracle(proc, UNIT_KERNEL, 1.0)
    assert rel_error(res.value, oracle) < 1e-13
    # mean zero here: the diagonal derivative of B(s) at s vanishes
    assert res.expectation() == 0.0


def test_chaos_oracle_equals_pipeline_seeded():
    rng = rng_from(207)
    for trial in range(20):
        proc = random_chaos_process(GRID, 3, rng)
        k = OuKernel(alpha=1.0) if trial % 2 == 0 else FbmKernel(H=0.5)
        res = integrate_plain(proc, k, 1.0)
        oracle = chaos_formula_oracle(proc, k, 1.0)
        assert rel_error(res.value, oracle) < 1e-10


def test_wick_oracle_equals_pipeline_seeded():
    rng = rng_from(211)
    for _ in range(10):
        proc = random_chaos_process(GRID, 2, rng)
        sig = random_chaos_process(GRID, 2, rng)
        k = OuKernel(alpha=0.9)
        res = integrate_wick(proc, sig, k, 1.0)
        oracle = chaos_formula_oracle(proc, k, 1.0, Sigma=sig)
        assert rel_error(res.value, oracle) < 1e-10


def test_sigma_unit_equals_plain():
    rng = rng_from(213)
    proc = random_chaos_process(GRID, 2, rng)
    k = OuKernel(alpha=1.1)
    unit = ChaosVector.deterministic(GRID, 1.0)
    a = integrate_sigma(proc, unit, k, 1.0)
    b = integrate_plain(proc, k, 1.0)
    assert rel_error(a.value, b.value) < 1e-13


def test_sigma_deterministic_modulation():
    k = OuKernel(alpha=1.0)
    rng = rng_from(215)
    sigma_vals = rng.uniform(0.5, 1.5, GRID.cells)
    sigma = ChaosProcess.from_function(
        GRID, lambda j: ChaosVector.deterministic(GRID, sigma_vals[j])
    )
    proc = ChaosProcess.constant(GRID, ChaosVector.deterministic(GRID, 1.0))
    res = integrate_sigma(proc, sigma, k, 1.0)
    comp = res.value.component(1)
    for j in range(GRID.cells):
        want = kernel_eval(k, 1.0, GRID.t_mid(j)) * sigma_vals[j]
        assert comp.entries[(j,)] == pytest.approx(want, rel=1e-13)


def test_wick_scalar_volatility_scales_plain():
    rng = rng_from(217)
    proc = random_chaos_process(GRID, 2, rng)
    k = OuKernel(alpha=1.0)
    c = ChaosVector.deterministic(GRID, -1.7)
    a = integrate_wick(proc, c, k, 1.0)
    b = integrate_plain(proc, k, 1.0)
    assert rel_error(a.value, b.value.scale(-1.7)) < 1e-13


def test_pullout_property_exact():
    rng = rng_from(219)
    for _ in range(8):
        proc = random_chaos_process(GRID, 1, rng)
        phi = random_chaos_vector(GRID, 1, rng)
        sigma = ChaosProcess.from_function(
            GRID, lambda j: ChaosVector.deterministic(GRID, 1.0 + 0.1 * j)
        )
        k = OuKernel(alpha=1.0)
        lifted = ChaosProcess.from_function(GRID, lambda j: pointwise(phi, proc.at(j)))
        lhs = integrate_sigma(lifted, sigma, k, 1.0).value
        rhs = pointwise(phi, integrate_sigma(proc, sigma, k, 1.0).value)
        assert rel_error(lhs, rhs) < 1e-11


def test_localization_exact():
    rng = rng_from(223)
    for kern in (OuKernel(alpha=1.0), UNIT_KERNEL):
        proc = random_chaos_process(GRID, 2, rng)
        S = 0.5
        cut = ChaosProcess.from_function(
            GRID,
            lambda j: proc.at(j) if GRID.t_left(j) < S else ChaosVector.zero(GRID),
        )
        whole = integrate_plain(cut, kern, 1.0).value
        local = integrate_plain(proc, kern, S).value
        assert rel_error(whole, local) < 1e-12


def test_linearity_of_integrals():
    rng = rng_from(227)
    a = random_chaos_process(GRID, 2, rng)
    b = random_chaos_process(GRID, 2, rng)
    k = OuKernel(alpha=1.0)
    combo = ChaosProcess.from_function(
        GRID, lambda j: a.at(j).scale(2.0).add(b.at(j).scale(-0.5))
    )
    lhs = integrate_plain(combo, k, 1.0).value
    rhs = integrate_plain(a, k, 1.0).value.scale(2.0).add(
        integrate_plain(b, k, 1.0).value.scale(-0.5)
    )
    assert rel_error(lhs, rhs) < 1e-12


def test_strongind_gate_and_equality():
    rng = rng_from(229)
    left_cells = [0, 1, 2, 3]
    right_cells = [4, 5, 6, 7]
    proc = random_chaos_process(GRID, 2, rng, cells=left_cells)
    sig = random_chaos_process(GRID, 2, rng, cells=right_cells)
    for k in (UNIT_KERNEL, OuKernel(alpha=1.0)):
        res = integrate_strongind(proc, sig, k, 1.0)
        wick_res = integrate_wick(proc, sig, k, 1.0)
        assert rel_error(res.value, wick_res.value) < 1e-12
        assert rel_error(res.value, integrate_sigma(proc, sig, k, 1.0).value) < 1e-12
        assert set(res.extra_diagnostics) == {"D(10)", "sigma_max_order"}
        assert res.extra_diagnostics["D(10)"] == wick_res.extra_diagnostics["D(10)"]
        assert res.extra_diagnostics["sigma_max_order"] == 2


def test_volatility_gates_equal_per_cell_norm_sums():
    """C(2) and D(10) contract one [order, cell] norm table; each equals the
    step-weighted sum of the cells' weighted norms bit for bit."""
    rng = rng_from(233)
    proc = random_chaos_process(GRID, 2, rng)
    sig = random_chaos_process(GRID, 3, rng)
    k = OuKernel(alpha=1.0)
    for lam in (0.5, 1.5):
        want = [GRID.step * sum(sig.at(s).gnorm_sq(index) for s in range(GRID.cells))
                for index in (lam, -lam)]
        assert integrate_sigma(proc, sig, k, 1.0, lam=lam).extra_diagnostics["C(2)"] == want[0]
        assert integrate_wick(proc, sig, k, 1.0, lam=lam).extra_diagnostics["D(10)"] == want[1]


def test_strongind_runs_the_wick_pipeline_once(monkeypatch):
    """The gated integral takes one stacked pass with Wick products: under
    the gate every contraction term of the pointwise product is zero, so
    only zero-contraction pair structures are built.  Its equality with the
    pointwise integral is asserted by the tests, not re-checked at run
    time."""
    passes = Counter()
    contractions = Counter()
    integrate, contract = vmbv_mod._integrate, stacked_mod._contract

    def counted_integrate(grid, t_cell, acted, vols=None, contract=False):
        passes["plain" if vols is None else "pointwise" if contract else "wick"] += 1
        return integrate(grid, t_cell, acted, vols, contract)

    def counted_contract(x, v, k, cells):
        contractions[k] += 1
        return contract(x, v, k, cells)

    monkeypatch.setattr(vmbv_mod, "_integrate", counted_integrate)
    monkeypatch.setattr(stacked_mod, "_contract", counted_contract)
    rng = rng_from(229)
    proc = random_chaos_process(GRID, 2, rng, cells=[0, 1, 2, 3])
    sig = random_chaos_process(GRID, 2, rng, cells=[4, 5, 6, 7])
    integrate_strongind(proc, sig, OuKernel(alpha=1.0), 1.0)
    assert passes == {"wick": 1}
    assert contractions[0] > 0 and set(contractions) == {0}


def test_strongind_rejects_overlap():
    rng = rng_from(231)
    proc = random_chaos_process(GRID, 2, rng, cells=[0, 1, 2, 3])
    sig = random_chaos_process(GRID, 2, rng, cells=[3, 4, 5])
    with pytest.raises(IndependenceError):
        integrate_strongind(proc, sig, UNIT_KERNEL, 1.0)


def test_strongind_checks_the_volatility_norm_before_the_diagnostics():
    """With disjoint supports, an overflowing integrand fails A(3) and an
    overflowing volatility fails D(10); the one check order of every mode
    (independence, volatility norm, diagnostics, order cap) names D(10)."""
    rng = rng_from(241)
    proc = random_chaos_process(GRID, 2, rng, cells=[0, 1, 2, 3], scale=1e200)
    sig = random_chaos_process(GRID, 2, rng, cells=[4, 5, 6, 7], scale=1e200)
    with pytest.raises(IntegrabilityError) as err:
        integrate_strongind(proc, sig, OuKernel(alpha=1.0), 1.0)
    assert err.value.assumption == "D(10)"


def test_every_integral_runs_the_one_driver_once(monkeypatch):
    calls = Counter()
    driver = vmbv_mod._integral

    def counted(phi, kernel, t, lambdas, vol=None, mode="plain", max_order=None):
        calls[mode] += 1
        return driver(phi, kernel, t, lambdas, vol, mode, max_order)

    monkeypatch.setattr(vmbv_mod, "_integral", counted)
    monkeypatch.setattr(donsker_mod, "_integral", counted)
    rng = rng_from(243)
    proc = random_chaos_process(GRID, 2, rng, cells=[0, 1, 2, 3])
    sig = random_chaos_process(GRID, 1, rng, cells=[4, 5, 6, 7])
    k = OuKernel(alpha=1.0)
    for integrate, mode in ((integrate_sigma, "sigma"), (integrate_wick, "wick"),
                            (integrate_strongind, "strongind")):
        integrate(proc, sig, k, 1.0)
        assert calls == {mode: 1}, mode
        calls.clear()
    integrate_plain(proc, k, 1.0)
    assert calls == {"plain": 1}
    calls.clear()
    donsker_vmbv_experiment(1.0, 0.25, 1.0, 3, [0.5, 1.0], GRID)
    assert calls == {"plain": 1}


def test_missing_volatility_is_a_type_error():
    """A mode with a volatility gate needs a volatility; None is rejected
    before any gate runs."""
    proc = random_chaos_process(GRID, 1, rng_from(244))
    k = OuKernel(alpha=1.0)
    for integrate in (integrate_sigma, integrate_wick, integrate_strongind):
        with pytest.raises(TypeError, match="volatility must be a process or vector"):
            integrate(proc, None, k, 1.0)
    with pytest.raises(TypeError, match="volatility must be a process or vector"):
        stability_suite(proc, proc, k, 1.0, lam=0.5, n_max=1, variant="sigma")


def test_strongind_deterministic_volatility_always_passes():
    rng = rng_from(233)
    proc = random_chaos_process(GRID, 2, rng)
    c = ChaosVector.deterministic(GRID, 2.0)
    res = integrate_strongind(proc, c, OuKernel(alpha=1.0), 1.0)
    plain = integrate_plain(proc, OuKernel(alpha=1.0), 1.0)
    assert rel_error(res.value, plain.value.scale(2.0)) < 1e-12


def test_truncation_cap_raises():
    rng = rng_from(237)
    proc = random_chaos_process(GRID, 2, rng)
    sig = random_chaos_process(GRID, 2, rng)
    with pytest.raises(TruncationOverflowError):
        integrate_sigma(proc, sig, OuKernel(alpha=1.0), 1.0, max_order=3)


def test_s_transform_oracle_plain():
    rng = rng_from(239)
    proc = ChaosProcess.constant(GRID, ChaosVector.deterministic(GRID, 1.0))
    k = OuKernel(alpha=1.0)
    xi = TestFunctionXi.from_values(GRID, rng.standard_normal(GRID.cells))
    res = integrate_plain(proc, k, 1.0)
    lhs = s_transform(res.value, xi)
    rhs = s_transform_oracle(proc, k, 1.0, xi)
    # all-deterministic integrand: value is the transform of the driver
    want = GRID.step * sum(
        kernel_eval(k, 1.0, GRID.t_mid(j)) * xi.values[j] for j in range(GRID.cells)
    )
    assert lhs == pytest.approx(want, rel=1e-12)
    assert rhs == pytest.approx(want, rel=1e-12)


def test_s_transform_oracle_seeded_and_wick():
    rng = rng_from(241)
    for trial in range(10):
        proc = random_chaos_process(GRID, 2, rng)
        k = OuKernel(alpha=1.0)
        xi = TestFunctionXi.from_values(GRID, 0.5 * rng.standard_normal(GRID.cells))
        res = integrate_plain(proc, k, 1.0)
        lhs = s_transform(res.value, xi)
        rhs = s_transform_oracle(proc, k, 1.0, xi)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

        sig = random_chaos_process(GRID, 1, rng)
        res_w = integrate_wick(proc, sig, k, 1.0)
        lhs_w = s_transform(res_w.value, xi)
        rhs_w = s_transform_oracle(proc, k, 1.0, xi, Sigma=sig)
        assert lhs_w == pytest.approx(rhs_w, rel=1e-10, abs=1e-12)


def test_s_transform_oracle_at_zero_direction():
    rng = rng_from(243)
    proc = random_chaos_process(GRID, 2, rng)
    k = OuKernel(alpha=1.0)
    xi = TestFunctionXi.from_values(GRID, np.zeros(GRID.cells))
    res = integrate_plain(proc, k, 1.0)
    # at the zero direction the transform reads off the expectation
    assert s_transform_oracle(proc, k, 1.0, xi) == pytest.approx(
        res.drift_part.expectation(), rel=1e-12, abs=1e-14
    )


def test_stability_law_all_variants():
    rng = rng_from(247)
    k = OuKernel(alpha=1.0)
    phi = random_chaos_process(GRID, 2, rng)
    psi = random_chaos_process(GRID, 2, rng)
    sigma = ChaosProcess.constant(GRID, random_chaos_vector(GRID, 1, rng))
    for variant, vol in (("plain", None), ("sigma", sigma), ("wick", sigma)):
        rows = stability_suite(phi, psi, k, 1.0, lam=0.5, n_max=6, variant=variant, vol=vol)
        for i in range(1, len(rows)):
            ratio = rows[i]["residual"] / rows[i - 1]["residual"]
            want = rows[i - 1]["n"] / rows[i]["n"]
            assert ratio == pytest.approx(want, rel=1e-9)
        assert rows[-1]["residual"] < rows[0]["residual"]


def test_stability_zero_perturbation():
    rng = rng_from(251)
    phi = random_chaos_process(GRID, 2, rng)
    zero = ChaosProcess.constant(GRID, ChaosVector.zero(GRID))
    rows = stability_suite(phi, zero, OuKernel(alpha=1.0), 1.0, lam=0.5, n_max=4)
    assert all(r["residual"] == 0.0 for r in rows)


def test_stability_violation_raises_typed_error(monkeypatch):
    """A broken 1/n law raises StabilityLawError with the step, the residual
    and the expected value; here every integral after the first two (the
    base and the perturbation) is shifted by a constant."""
    rng = rng_from(253)
    k = OuKernel(alpha=1.0)
    phi = random_chaos_process(GRID, 2, rng)
    psi = random_chaos_process(GRID, 2, rng)
    runs = []
    integral = vmbv_mod._integral

    def shifted(proc, *args):
        value, *rest = integral(proc, *args)
        runs.append(value)
        if len(runs) <= 2:
            return (value, *rest)
        return (value.add(ChaosVector.deterministic(GRID, 0.5)), *rest)

    monkeypatch.setattr(vmbv_mod, "_integral", shifted)
    with pytest.raises(StabilityLawError) as info:
        stability_suite(phi, psi, k, 1.0, lam=0.5, n_max=4)
    err = info.value
    index = -0.5 - 0.1
    assert isinstance(err, RuntimeError)
    assert err.n == 1
    assert err.expected == runs[1].gnorm(index)
    want = runs[2].add(ChaosVector.deterministic(GRID, 0.5)).sub(runs[0]).gnorm(index)
    assert err.residual == pytest.approx(want, rel=1e-12)
    assert abs(err.residual - err.expected) > 1e-9 * max(err.expected, 1.0)


def test_constant_volatility_scales_the_point_mass_integral(tmp_path):
    """A deterministic volatility is plain scaling in every product mode,
    also on layered kernels too large to densify."""
    import json

    from chaoscalc.cli import main
    from chaoscalc.config import parse_config

    obj = {
        "grid": {"horizon": 1.0, "cells": 32},
        "kernel": {"kind": "ou", "alpha": 1.0},
        "integrand": {"builder": "donsker", "order": 12, "eps": 0.25},
        "volatility": {"mode": "wick", "spec": {"builder": "constant", "value": 2.0}},
        "t": 1.0,
        "lambdas": [0.5, 1.0, 2.0],
        "seed": 7,
    }
    cfg = parse_config(obj)
    phi, vol, kernel = cfg.integrand(), cfg.volatility(), cfg.kernel()
    want = integrate_plain(phi, kernel, 1.0).value.scale(2.0)
    for integrate in (integrate_wick, integrate_sigma, integrate_strongind):
        got = integrate(phi, vol, kernel, 1.0).value
        for lam in cfg.lambdas:
            assert got.sub(want).gnorm(-lam) <= 1e-12 * want.gnorm(-lam)

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(obj))
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0


def _mixed_form_config(mode: str) -> dict:
    """The point-mass integrand under a custom volatility that is the
    constant 1 except at cell 2, where it is an order-2 sparse kernel: the
    products hold layered kernels at some cells and sparse ones at others,
    at the same order."""
    grid = {"T": 1.0, "M": 4}
    one = {"grid": grid, "components": [{"order": 0, "grid": grid, "entries": [[[], 1.0]]}]}
    pair = {"grid": grid, "components": [{"order": 2, "grid": grid, "entries": [[[0, 1], 1.0]]}]}
    return {
        "grid": {"horizon": 1.0, "cells": 4},
        "kernel": {"kind": "ou", "alpha": 1.0},
        "integrand": {"builder": "donsker", "order": 2, "eps": 0.25},
        "volatility": {"mode": mode, "spec": {"builder": "custom",
                                              "cells": [one, one, pair, one]}},
        "t": 1.0,
        "lambdas": [0.5, 1.0],
        "seed": 7,
    }


@pytest.mark.parametrize("mode", ["wick", "pointwise"])
def test_mixed_storage_forms_at_one_order(tmp_path, mode):
    obj = _mixed_form_config(mode)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(obj))
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    if mode != "wick":
        return

    cfg = parse_config(obj)
    phi, vol, kernel = cfg.integrand(), cfg.volatility(), cfg.kernel()
    got = integrate_wick(phi, vol, kernel, 1.0).value
    assert rel_error(got, chaos_formula_oracle(phi, kernel, 1.0, Sigma=vol)) < 1e-10

    kg = kg_apply(phi, kernel, 1.0)
    integrand = ChaosProcess.from_values(cfg.grid, [wick(kg.at(s), vol.at(s)) for s in range(4)])
    forms = {type(integrand.at(s).components[2]) for s in range(4) if 2 in integrand.at(s).components}
    assert forms == {LayeredKernel, SymKernel}
    dense_vals = [dense_vector(integrand.at(s)) for s in range(4)]
    out = skorohod(integrand, 0.0, 1.0)
    want = dense_skorohod(cfg.grid, dense_vals, 0, 4)
    assert compare_dense(cfg.grid, dense_vector(out, n_max=max(want)), want) <= 1e-12

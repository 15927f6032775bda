"""The kernel action as one matrix and the lambda-free diagnostic tables,
against the cell-by-cell algorithms of ``dense_ref``."""

from collections import Counter

import pytest

import chaoscalc.vmbv as vmbv_mod
from chaoscalc import (
    ChaosProcess,
    ChaosVector,
    OuKernel,
    TurbulenceKernel,
    assumption_report,
    donsker_process,
    donsker_vmbv_experiment,
    kg_apply,
    make_grid,
)
from chaoscalc.testing import random_chaos_process, rng_from
from chaoscalc.volterra import DiagnosticTables, KernelAction, kernel_action
from dense_ref import assumption_report_per_cell, kg_apply_per_cell, order_weighted_sum_scalar

GRID = make_grid(1.0, 16)
GRID12 = make_grid(1.0, 12)  # a step that is not a power of two: the singular kernel clips
LAMBDAS = (0.5, 1.0, 2.0)
CASES = {
    "sparse-clipped": (random_chaos_process(GRID12, 2, rng_from(61)), TurbulenceKernel(alpha=1.0, nu=0.8)),
    "donsker-layered": (donsker_process(GRID, 8, 0.25), OuKernel(alpha=1.2)),
    "constant": (ChaosProcess.constant(GRID, ChaosVector.deterministic(GRID, 1.5)), OuKernel(alpha=0.7)),
}


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_per_cell_algorithm(name):
    proc, kernel = CASES[name]
    for lam in LAMBDAS:
        got = assumption_report(proc, kernel, lam, 1.0)
        want = assumption_report_per_cell(proc, kernel, lam, 1.0)
        assert len(got.a3) == len(want.a3)
        assert all(close(a, b) for a, b in zip(got.a3, want.a3))
        for field in ("b4", "b5", "aggregate", "a3_times_s_max"):
            assert close(getattr(got, field), getattr(want, field)), field
        assert got.clipped_cells == want.clipped_cells
    if name == "sparse-clipped":
        assert got.clipped_cells > 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_kg_apply_matches_per_cell_sum(name):
    proc, kernel = CASES[name]
    got = kg_apply(proc, kernel, 1.0)
    want = kg_apply_per_cell(proc, kernel, 1.0)
    for s in range(proc.grid.cells):
        diff = got.at(s).sub(want[s]).gnorm(-1.0)
        assert diff <= 1e-12 * max(want[s].gnorm(-1.0), 1e-300) or diff == 0.0


def test_action_matrix_rows():
    action = kernel_action(OuKernel(alpha=1.0), GRID, 0.5)
    assert isinstance(action, KernelAction)
    assert action.matrix.shape == (8, 8)
    # strictly upper Stieltjes part; the diagonal absorbs minus the row sum
    assert (action.weights.diagonal() == 0.0).all()
    row_sums = action.matrix.sum(axis=1)
    assert all(close(r, g, 1e-13) for r, g in zip(row_sums, action.g))
    with pytest.raises(ValueError):
        kernel_action(OuKernel(alpha=1.0), GRID, 0.01)


def test_experiment_builds_one_action_one_table_one_integral(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vmbv_mod, "kernel_action", counted("build", vmbv_mod.kernel_action))
    monkeypatch.setattr(vmbv_mod, "_order_stacks", counted("stacks", vmbv_mod._order_stacks))
    monkeypatch.setattr(KernelAction, "tables", counted("tables", KernelAction.tables))
    monkeypatch.setattr(vmbv_mod, "_integrate", counted("integral", vmbv_mod._integrate))
    donsker_vmbv_experiment(1.0, 0.25, 1.0, 8, list(LAMBDAS), GRID)
    # the layer-0 probes read the stacked action: no per-cell view is built
    assert calls == {"build": 1, "stacks": 1, "tables": 1, "integral": 1}


def test_report_contraction_matches_per_cell_scalar_sums():
    """One contraction of the tables against the scalar sum per cell and per
    condition, with a zero row, zero cells, orders above the log-space guard
    and weight indices of both signs."""
    rng = rng_from(71)
    orders = (0, 2, 4, 32, 44)
    cells = GRID.cells
    a3, b4, b5, aggregate = (rng.uniform(0.0, 3.0, (len(orders), cells)) for _ in range(4))
    a3[1] = 0.0
    a3[:, 5] = 0.0
    b5[3] = 0.0
    tables = DiagnosticTables(GRID, 1.0, orders, a3, b4, b5, aggregate, 0)
    step = GRID.step
    for lam in (-0.7, 0.5, 1.0, 2.0):
        got = tables.report(lam)
        want_a3 = [order_weighted_sum_scalar(orders, column, -lam) for column in a3.T]
        assert all(g == pytest.approx(w, rel=1e-13, abs=0.0) for g, w in zip(got.a3, want_a3))
        assert got.a3[5] == 0.0
        for name, table in (("b4", b4), ("b5", b5), ("aggregate", aggregate)):
            want = step * order_weighted_sum_scalar(orders, table.sum(axis=1), -lam)
            assert getattr(got, name) == pytest.approx(want, rel=1e-13, abs=0.0), name
        want_s_max = max(a * GRID.t_left(s) for s, a in enumerate(want_a3))
        assert got.a3_times_s_max == pytest.approx(want_s_max, rel=1e-13)

"""The recorded values of the benchmark's reference ops still hold, so a
drift of ``bench/reference.json`` shows in the tests before a benchmark run.
The benchmark modules are imported read-only; nothing under ``bench/`` is
written."""

from pathlib import Path

import numpy as np
import pytest

from chaoscalc import (
    ChaosVector,
    OuKernel,
    SymKernel,
    TimeSlotSymKernel,
    donsker_process,
    integrate_wick,
    make_grid,
)
from chaoscalc.kernels import _ARRAY_MIN_ENTRIES, _multisets

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["Donsker", "Vmbv"])
def test_benchmark_reference_ops_match_recorded_values(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    assert workloads.check_references(getattr(workloads, workload)) == []


def test_tracer_counts_the_entries_of_time_slot_values(monkeypatch):
    """``stored_entries`` of the benchmark's tracer counts a point-mass
    integral under a constant Wick volatility: the non-zero cells of each
    time-slot table plus the sparse entries.  It reads the time-slot
    kernels' ``extra`` attribute, which stays None."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    grid = make_grid(1.0, 8)
    phi = donsker_process(grid, 4, grid.t_left(2))
    value = integrate_wick(phi, ChaosVector.deterministic(grid, 2.0), OuKernel(alpha=1.0), 1.0).value
    comps = value.components.values()
    assert {type(k) for k in comps} == {SymKernel, TimeSlotSymKernel}
    assert all(k.extra is None for k in comps if isinstance(k, TimeSlotSymKernel))
    want = sum(int((k.phi != 0).sum()) if isinstance(k, TimeSlotSymKernel) else len(k.entries) for k in comps)
    got = tracer.stored_entries(value)
    assert type(got) is int and got == want


def test_tracer_counts_an_array_held_sparse_kernel(monkeypatch):
    """``stored_entries`` reads ``comp.entries``, which a kernel holding its
    canonical arrays builds on first read: the count is the number of live
    rows.  The tracer counts kernels by wrapping ``SymKernel.__init__``, so
    ``from_arrays`` must still go through it, once per kernel."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    grid = make_grid(1.0, 32)
    tuples = _multisets(2, np.ones(grid.cells, dtype=bool))
    coef = np.arange(len(tuples), dtype=float) % 5  # every fifth row is zero
    live = int(np.count_nonzero(coef))
    assert live >= _ARRAY_MIN_ENTRIES
    t = tracer.Tracer()
    t.install()
    try:
        t.begin_op()
        k = SymKernel.from_arrays(2, grid, tuples, coef)
        t.end_op()
    finally:
        t.uninstall()
    assert t.counts["kernels.SymKernel.created"] == 1
    assert k._entries is None  # the kernel holds its arrays
    got = tracer.stored_entries(ChaosVector.from_kernel(k))
    assert type(got) is int and got == live == k.nnz()


def test_tracer_targets_resolve(monkeypatch):
    """Every function the benchmark's tracer wraps still exists, so a
    renamed or deleted target fails here instead of zeroing a per-layer
    metric."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    targets = tracer.SPAN_TARGETS + tracer.COUNT_TARGETS
    assert targets
    assert [f"{module}.{path}" for _, module, path in targets if tracer._resolve(module, path) is None] == []

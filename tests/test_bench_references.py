"""The recorded values of the benchmark's reference ops still hold, so a
drift of ``bench/reference.json`` shows in the tests before a benchmark run.
The benchmark modules are imported read-only; nothing under ``bench/`` is
written."""

from pathlib import Path

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

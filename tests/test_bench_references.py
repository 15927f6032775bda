"""The recorded values of the benchmark's reference ops still hold, so a
drift of ``bench/reference.json`` shows in the tests before a benchmark run.
The benchmark modules are imported read-only; nothing under ``bench/`` is
written."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["Donsker", "Vmbv"])
def test_benchmark_reference_ops_match_recorded_values(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    assert workloads.check_references(getattr(workloads, workload)) == []

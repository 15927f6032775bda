"""chaoscalc benchmark: one workload, closed loop, one client, one process.

    python3 bench/run.py --workload {donsker,vmbv,identities} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The run

1. sets up: imports ``chaoscalc`` and builds the inputs of the first round
   (configs, grids, kernels, processes, noise block);
2. runs whole rounds of ops until the timed time reaches ``--seconds`` and
   at least ten completed ops lie beyond the workload's tail percentile;
   only the op call is timed, and every output is checked after it;
3. checks the fixed reference ops against ``reference.json`` and re-runs
   the cheapest op of the first round, which must give identical bytes;
4. repeats the set-up in fresh processes and reports the median set-up time;
5. with ``--trace 1``, replays the first round with layer spans installed,
   and reports the per-layer metrics instead of the end-to-end ones.

End-to-end metrics (``--trace 0``): ``setup_s``, the median of three
set-ups; ``ops_per_s``, ops that completed and passed their check per
second of timed time, failed ops included in the time; ``op_p50_s``, the
median latency of completed ops; ``op_tail_s``, the latency of completed
ops at the workload's fixed tail percentile (``TAIL_PCT`` in
``workloads.py``), nearest rank; ``peak_rss_mb``, the process's peak
resident memory.  The percentile is fixed, not taken from the sample count,
so that a faster program, which fits more ops into the run, still reports
the same percentile.  The fail ratio, the tail percentile, its rank, the
sample count and the ops beyond the rank are in the record.

Every time in these metrics is in reference seconds: the measured wall time
scaled to the speed of a fixed pure-Python probe (``speed_probe``), timed
right before, right after and every 50 ms inside the span (``HostSpeed``).
On a shared host the speed of a core drifts by up to 1.8x within seconds,
for the program and the probe alike; scaling each op by the probes taken
around and inside it removes that drift while keeping every change in the
program's own speed.  A reference second is a wall second when the probe
takes ``PROBE_REF_S``.  The wall-time metrics and every op's probe time
are in the record.

The run is correct when every op either completes and passes its check or
fails in the way its class is known to fail (``expected_error`` of the op),
the reference ops match, and the repeated op gives identical bytes.  When
no op completes, the latency metrics read 0 and the run is not correct.

Per-layer metrics (``--trace 1``), over the traced replay of the first
round: ``X.self_s`` is span time minus child spans and ``X.calls`` the call
count of each wrapped function (see ``tracer.py``);
``vmbv.integrate.calls_per_op`` counts integral calls per op;
``volterra.kg_apply.reuse_ratio`` is distinct (process, kernel, t) keys per
kernel-action call; ``montecarlo.entry_paths`` is stored entries times paths
evaluated; ``kernels.nnz_out`` and ``kernels.max_order_out`` describe the
returned integral values; ``proc.cpu_s`` is the CPU time of the timed ops;
``trace.overhead_s`` is the traced replay's wall time minus the timed
latencies of the same ops;
``trace.span_coverage`` is the share of traced op time inside named spans.

The next-to-last line of standard output is a JSON record of the run: the
machine, the seed, every op with its class, M, mode, N and latency, each
failure with its exception type, the checks, the tail percentile used and
the sample count.  The last line is the result for the benchmark driver.
The process runs single-threaded: BLAS pools are limited to one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_PROBES = 2          # extra set-ups in fresh processes, beside this one
TAIL_BEYOND = 10          # completed ops that must lie beyond the tail percentile
WALL_LIMIT_S = 100.0      # stop at the first op boundary past this, even mid-round
PROBE_STEPS = 4_000       # 0.9 to 1.8 ms of dict and float work on a shared 2.1 GHz Xeon core
PROBE_REF_S = 0.001       # probe time that makes a reference second a wall second
EDGE_PROBES = 5           # probes right before and right after a timed span
SAMPLE_EVERY_S = 0.05     # probe period inside a timed span
WORKLOAD_NAMES = ("donsker", "vmbv", "identities")  # known before the timed import

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("calls_per_op"):
        return "count/op"
    if name.endswith(("reuse_ratio", "span_coverage")):
        return "ratio"
    if name.endswith("max_order_out"):
        return "order"
    return "count"


def machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def speed_probe() -> float:
    """Wall time of a fixed piece of interpreter work (dict updates on tuple
    keys and float arithmetic, the staple of the library's sparse kernels).
    It touches nothing of the program, so it follows the host's speed only."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(PROBE_STEPS):
        key = (i % 61, i % 7)
        value = table.get(key, 0.0) + i * 0.5
        table[key] = value
        acc += value * 1e-9
    return time.perf_counter() - t0


class HostSpeed:
    """Times a span and the host's speed around and inside it.

    The core's speed drifts within a second, so probes taken only at the
    edges of a long op miss most of it: a timer also runs a probe every
    ``SAMPLE_EVERY_S`` inside the span, and the time those probes take is
    left out of the span's wall and CPU time.  ``ref_s`` is the span's time
    scaled to the reference speed, at which the mean probe takes
    ``PROBE_REF_S``.
    """

    def __enter__(self):
        self.probes = [speed_probe() for _ in range(EDGE_PROBES)]
        self.stolen = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.c0 = time.process_time()
        self.t0 = time.perf_counter()
        return self

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(speed_probe())
        self.stolen += time.perf_counter() - t0

    def __exit__(self, *exc):
        wall = time.perf_counter() - self.t0
        cpu = time.process_time() - self.c0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.elapsed = wall - self.stolen
        self.cpu = cpu - self.stolen
        self.probes += [speed_probe() for _ in range(EDGE_PROBES)]
        self.probe_s = statistics.mean(self.probes)
        self.ref_s = self.elapsed * PROBE_REF_S / self.probe_s
        return False


def timed_call(op, inputs):
    """Run one op; only the op call is timed, with the host's speed."""
    gc.collect()
    with HostSpeed() as span:
        try:
            out, error = op.run(inputs), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, error = None, exc
    return out, error, span


def describe(error: BaseException) -> dict:
    return {"type": type(error).__name__, "message": str(error)[:300]}


def run_op(op, inputs, r: int, i: int) -> dict:
    out, error, span = timed_call(op, inputs)
    rec = {"round": r, "op": i, "class": op.cls, **op.params,
           "latency_s": span.elapsed, "cpu_s": span.cpu, "probe_s": span.probe_s,
           "probes": len(span.probes), "ref_latency_s": span.ref_s, "ok": error is None}
    if error is not None:
        rec["error"] = describe(error)
        rec["expected_failure"] = type(error).__name__ == getattr(op, "expected_error", None)
        return rec
    try:
        problem = op.check(inputs, out)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    rec["digest"] = op.digest(out)
    if hasattr(op, "phases"):
        rec.update(op.phases(out))
    if problem is not None:
        rec["ok"] = False
        rec["check_failed"] = problem
    return rec


def tail_rank(n: int, pct: int) -> int:
    """Nearest rank (1-based) of the ``pct`` percentile among ``n`` values."""
    return max(1, -(-pct * n // 100))


def setup_probe_times(workload: str, seed: int) -> list[dict]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def traced_replay(wl, timed_round0: list[dict]) -> tuple[dict, dict]:
    """Run the first round again with layer spans installed.  Every output
    must repeat the timed run's bytes and every failure its exception type;
    the traced wall time minus the timed latencies is the tracing overhead."""
    import tracer as tracing

    ops = wl.round_ops(0)
    inputs = [op.build() for op in ops]
    tr = tracing.Tracer()
    tr.install()
    traced_s = 0.0
    mismatches = []
    try:
        for op, inp, rec in zip(ops, inputs, timed_round0):
            gc.collect()
            tr.begin_op()
            t0 = time.perf_counter()
            try:
                out, error = op.run(inp), None
            except Exception as exc:
                out, error = None, exc
            traced_s += time.perf_counter() - t0
            tr.end_op()
            if error is not None:
                if rec.get("error", {}).get("type") != type(error).__name__:
                    mismatches.append(f"{op.cls}: replay raised {type(error).__name__}")
            elif op.digest(out) != rec.get("digest"):
                mismatches.append(f"{op.cls}: replay output differs from the timed one")
    finally:
        tr.uninstall()
    untraced_s = sum(rec["latency_s"] for rec in timed_round0)
    metrics = tr.metrics()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    info = {
        "ops": len(ops),
        "traced_wall_s": traced_s,
        "untraced_wall_s": untraced_s,
        "missing_targets": sorted(tr.missing),
        "repeat_mismatches": mismatches,
        "waits": "none reported: one single-threaded process runs one op at a time, "
                 "so no layer queues or waits for another",
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "chaoscalc" / "__init__.py").is_file():
        print(f"error: no chaoscalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # -- set-up: import and first-round inputs --------------------------------
    t0 = time.perf_counter()
    with HostSpeed() as span:
        import chaoscalc
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed)
        ops = wl.round_ops(0)
        inputs = [op.build() for op in ops]
    setup_here = {"setup_s": span.elapsed, "probe_s": span.probe_s, "ref_setup_s": span.ref_s}
    if not Path(chaoscalc.__file__).resolve().is_relative_to(SRC):
        print(f"error: chaoscalc imported from {chaoscalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup_here))
        return 0
    # Move the long-lived objects out of the collector's way: collections
    # between and inside ops then scan only what the ops allocate.
    gc.collect()
    gc.freeze()

    # -- timed loop: whole rounds until the timed time reaches --seconds -------
    # and enough completed ops lie beyond the tail percentile.
    records: list[dict] = []
    timed_s = 0.0
    done = 0
    r = 0
    wall_limited = False
    while True:
        for i, (op, inp) in enumerate(zip(ops, inputs)):
            rec = run_op(op, inp, r, i)
            records.append(rec)
            timed_s += rec["latency_s"]
            done += rec["ok"]
            if time.perf_counter() - t0 > WALL_LIMIT_S:
                wall_limited = True
                break
        r += 1
        if wall_limited or (timed_s >= args.seconds
                            and done - tail_rank(done, wl.TAIL_PCT) >= TAIL_BEYOND):
            break
        ops = wl.round_ops(r)
        inputs = [op.build() for op in ops]
    del ops, inputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks outside the timed span ------------------------------------------
    round0 = [rec for rec in records if rec["round"] == 0]
    completed = [rec for rec in records if rec["ok"]]
    failures = [{"round": rec["round"], "op": rec["op"], "class": rec["class"],
                 "expected": rec.get("expected_failure", False),
                 **(rec["error"] if "error" in rec else
                    {"type": "CheckFailed", "message": rec["check_failed"]})}
                for rec in records if not rec["ok"]]
    unexpected = [f for f in failures if not f["expected"]]

    reference_problems = workloads.check_references(wl)
    repeat = {"class": None, "identical": None}
    done0 = [rec for rec in round0 if rec["ok"]]
    if done0:
        pick = min(done0, key=lambda rec: rec["latency_s"])
        op = wl.round_ops(0)[pick["op"]]
        out, error, _ = timed_call(op, op.build())
        repeat = {"class": pick["class"],
                  "identical": error is None and op.digest(out) == pick["digest"]}

    setup_samples = [setup_here] + setup_probe_times(args.workload, args.seed)

    # -- metrics ------------------------------------------------------------------
    def time_metrics(prefix: str) -> dict:
        """The time metrics from reference times (prefix "ref_") or wall times ("")."""
        latencies = sorted(rec[prefix + "latency_s"] for rec in completed)
        rank = tail_rank(len(latencies), wl.TAIL_PCT)
        return {
            "setup_s": statistics.median(s[prefix + "setup_s"] for s in setup_samples),
            "ops_per_s": len(completed) / sum(rec[prefix + "latency_s"] for rec in records),
            "op_p50_s": statistics.median(latencies) if latencies else 0.0,
            "op_tail_s": latencies[rank - 1] if latencies else 0.0,
        }

    rank = tail_rank(len(completed), wl.TAIL_PCT)
    end_to_end = {**time_metrics("ref_"), "peak_rss_mb": peak_rss_mb}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "loop": "closed, 1 client, 1 single-threaded process",
        "rounds": r,
        "wall_limited": wall_limited,
        "timed_wall_s": timed_s,
        "timed_cpu_s": sum(rec["cpu_s"] for rec in records),
        "attempted": len(records),
        "completed": len(completed),
        "failed": len(records) - len(completed),
        "fail_ratio": (len(records) - len(completed)) / len(records),
        "op_tail_percentile": wl.TAIL_PCT,
        "op_tail_rank": rank,
        "op_tail_samples": len(completed),
        "op_tail_beyond": len(completed) - rank,
        "setup_samples_s": setup_samples,
        "end_to_end": end_to_end,
        "end_to_end_wall": time_metrics(""),
        "probe_ref_s": PROBE_REF_S,
        "failures": failures,
        "reference_problems": reference_problems,
        "repeat_check": repeat,
        "records": records,
    }
    correct = not unexpected and not reference_problems and repeat["identical"] is True

    if args.trace:
        layer, info = traced_replay(wl, round0)
        layer["proc.cpu_s"] = detail["timed_cpu_s"]
        detail["trace_info"] = info
        detail["per_layer"] = layer
        correct = correct and not info["repeat_mismatches"]
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in sorted(layer.items())}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    detail["correct"] = correct

    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(records) - len(completed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Rebuild the table of ``vmbv`` time by cell count M and mode from run records.

    python3 bench/run.py --workload vmbv --seed 1 --seconds 30 --trace 0 > vmbv.out
    python3 bench/table.py vmbv.out [more.out ...]

Reads the JSON record line that ``run.py`` prints and reports, per (M, mode,
integrand), the median time of the integral plus its weighted norms (what
the ``vmbv`` subcommand computes) and of pathwise evaluation.  The ROADMAP
baseline (Brownian integrand, OU kernel, t = 1) stands beside the Brownian
and Wiener rows, whose kernels have the same sparsity, with the ratio of the
measured median to it.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

ROADMAP_BASELINE_S = {  # (M, mode) -> seconds, Brownian integrand on an OU kernel
    (16, "none"): 0.012, (16, "wick"): 0.020, (16, "pointwise"): 0.023,
    (32, "none"): 0.053, (32, "wick"): 0.113, (32, "pointwise"): 0.132,
    (64, "none"): 0.292, (64, "wick"): 0.650, (64, "pointwise"): 0.741,
}


def records(paths):
    for path in paths:
        with open(path) as fh:
            for line in fh:
                if line.startswith('{"detail"'):
                    yield from json.loads(line)["detail"]["records"]


def main(paths) -> int:
    cells = defaultdict(list)
    for rec in records(paths):
        if rec["class"].startswith("vmbv/") and rec["ok"]:
            cells[(rec["M"], rec["mode"], rec["integrand"])].append(rec)
    if not cells:
        print("no completed vmbv records found", file=sys.stderr)
        return 1
    print("| M | mode | integrand | kernels | ops | integral+norms s | evaluate s "
          "| ROADMAP s | ratio |")
    print("|---|------|-----------|---------|-----|------------------|------------"
          "|-----------|-------|")
    for (M, mode, integrand), recs in sorted(cells.items()):
        run_s = statistics.median(r["integrate_s"] + r["norms_s"] for r in recs)
        eval_s = statistics.median(r["evaluate_s"] for r in recs)
        kernels = ",".join(sorted({r["kernel"] for r in recs}))
        base = ROADMAP_BASELINE_S.get((M, mode)) if integrand in ("brownian", "wiener") else None
        base_txt, ratio = ("-", "-") if base is None else (f"{base:.3f}", f"{run_s / base:.2f}")
        print(f"| {M} | {mode} | {integrand} | {kernels} | {len(recs)} | {run_s:.3f} "
              f"| {eval_s:.3f} | {base_txt} | {ratio} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Self-test: the op counts of a traced run repeat exactly for one seed.

    python3 bench/selftest.py [--seed N] [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload with the same seed and the
shortest run the workload allows (the traced replay covers its first round)
and compares every count: call counts, kernel and vector creations, entries
evaluated per path and stored entries of the results.  Claims based on
counts rely on this.
Exits 1 and names the counts that differ, or 0 when all repeat.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_NAMES = ("kernels.SymKernel.created", "chaos.ChaosVector.created",
               "montecarlo.entry_paths", "kernels.nnz_out", "kernels.max_order_out",
               "kernels.to_sparse.calls")


def counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.001", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith((".calls", ".calls_per_op")) or name in COUNT_NAMES}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=["donsker", "vmbv", "identities"])
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        differ = sorted(name for name in first if first[name] != second.get(name))
        ok &= not differ
        status = "repeat" if not differ else f"DIFFER: {', '.join(differ)}"
        print(f"{workload}: {len(first)} counts {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

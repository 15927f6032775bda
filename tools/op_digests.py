"""Digests of the first round of every benchmark workload, and their diff.

    python3 tools/op_digests.py --seeds 7 11 --out digests.json
    python3 tools/op_digests.py --compare before.json after.json

The first form runs round 0 of each workload of ``bench/workloads.py`` at
each seed, untimed, and writes one digest per op as JSON, keyed
``workload/seed/index/class``.  The digest is the op's own ``digest`` of
its output (kernels, norms and path values, bit for bit); an op that raises
is recorded as ``error:<exception type>``.  The package and the workloads
are imported from the checkout that holds this script, and nothing in them
is changed.

The second form lists the keys whose digests differ or that only one file
holds, and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digests(seeds: list[int]) -> dict[str, str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    out = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            for i, op in enumerate(workload(seed).round_ops(0)):
                try:
                    digest = op.digest(op.run(op.build()))
                except Exception as exc:  # an op that fails is recorded, not fatal
                    digest = f"error:{type(exc).__name__}"
                out[f"{name}/{seed}/{i}/{op.cls}"] = digest
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--out", help="JSON file to write the digests to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        differ = [key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]
        for key in differ:
            print(f"{key}: {a.get(key, '-')} != {b.get(key, '-')}")
        print(f"{len(set(a) | set(b)) - len(differ)} equal, {len(differ)} differ")
        return 1 if differ else 0
    if not args.out:
        parser.error("--out is required without --compare")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    result = digests(args.seeds)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result)} ops written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

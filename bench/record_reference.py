"""Record the values of the fixed reference ops into ``reference.json``.

    python3 bench/record_reference.py

Run from the root of a checkout whose results are trusted; every benchmark
run compares its reference ops with the recorded values to 1e-10 relative
error.  Re-recording hides any change in those values, so do it only when a
change of the results is intended and explained.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    values = {}
    for workload in workloads.WORKLOADS.values():
        values.update(workloads.compute_references(workload))
    workloads.REFERENCE_FILE.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} reference ops to {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate perfbench/golden.json: the sha256 digests of what grtc emits
on each benchmark workload.

    python3 perfbench/golden.py --seeds 0-31

Run from the repository root, only when grtc's outputs are meant to
change.  The census does not depend on the seed and is stored once under
"any"; the other workloads are stored per seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import HERE, WORK_ROOT, run_pass
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range A-B")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    golden: dict = {}
    work = WORK_ROOT / "golden"
    try:
        for workload in WORKLOADS:
            seeds = [0] if workload == "census-tiny" else range(first, last + 1)
            for seed in seeds:
                res = run_pass("measure", workload, seed, work)
                if res["failed"]:
                    print(f"{workload} seed {seed}: {res['notes']}", file=sys.stderr)
                    return 1
                key = "any" if workload == "census-tiny" else str(seed)
                golden.setdefault(workload, {})[key] = res["digests"]
                print(workload, key, res["digests"], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Pool-size ladder: one churn-large-style run per starting pool size,
timed layer by layer, so that growth with the pool shows.

    python3 bench/ladder.py [--src DIR] [--label NAME] [--out FILE]

For each starting pool n0 in 300, 1000 and 3000 the run uses perfbench's stationary churn
trace (``perfbench/workloads.py:churn_trace``: every worker leaves at
rate 0.05 and is replaced at once, trace seed 0) and churn-large's run
config (d=2, ``balanced``, ``pred-first``, seed 7, one task per time
unit, 200 tasks).  It records the event count, the ``run_rotation``
seconds and µs per event, the seconds of ``summarize_run``,
``dump_record``, ``load_record`` and ``validate_record``, the record's
size, and the tracemalloc peak of a second, traced ``run_rotation``.

grtc is imported from ``--src`` (default: this checkout's ``src``), so
the same script measures another tree, for example a parent commit.
The results are stored under ``runs[LABEL]`` of ``--out``; the other
labels already in that file are kept.  Only the standard library is
used, and no test or gate reads the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOLS = (300, 1000, 3000)
TRACE_SEED = 0


def measure(workloads, n0: int, tmp: Path) -> dict:
    from grtc.config import RunSetup
    from grtc.generator import run_rotation
    from grtc.metrics import summarize_run
    from grtc.records import dump_record, load_record
    from grtc.recordcheck import validate_record

    p = workloads.RUN_WORKLOADS["churn-large"]
    setup = RunSetup(dict(workloads.RUN_CONFIG,
                          schedule={"interval": 1.0, "count": p["tasks"]}))
    roster, events = workloads.churn_trace(TRACE_SEED, n0, p["departure_rate"],
                                           p["duration"])
    initial = setup.initial_state(roster)
    clock = time.perf_counter

    def run():
        return run_rotation(initial, setup.policy, setup.strategies, setup.schedule,
                            events, config=setup.echo())

    t0 = clock()
    record = run()
    run_s = clock() - t0

    t0 = clock()
    summarize_run(record, setup.weights)
    metrics_s = clock() - t0

    path = tmp / f"record-{n0}.json"
    t0 = clock()
    dump_record(record, path)
    dump_s = clock() - t0
    record_mb = path.stat().st_size / 1e6

    t0 = clock()
    doc = load_record(path)
    load_s = clock() - t0
    path.unlink()

    t0 = clock()
    report = validate_record(doc)
    validate_s = clock() - t0
    if not report.ok:
        raise SystemExit(f"ladder: the n0={n0} record does not validate: {report}")

    del record, doc
    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    return {
        "events": len(events),
        "run_s": round(run_s, 4),
        "us_per_event": round(run_s / len(events) * 1e6, 2),
        "summarize_run_s": round(metrics_s, 4),
        "dump_record_s": round(dump_s, 4),
        "record_mb": round(record_mb, 2),
        "load_record_s": round(load_s, 4),
        "validate_record_s": round(validate_s, 4),
        "run_peak_mb": round(peak / 1e6, 2),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory that holds the grtc package to measure")
    ap.add_argument("--label", default="this tree")
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(Path(args.src).resolve()))
    import workloads

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    tasks = workloads.RUN_WORKLOADS["churn-large"]["tasks"]
    doc.setdefault("workload", "perfbench churn_trace, churn-large config, "
                               f"trace seed {TRACE_SEED}, {tasks} tasks")
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n0 in POOLS:
            rows[f"n{n0}"] = row = measure(workloads, n0, Path(tmp))
            print(f"{args.label}: n0={n0} {json.dumps(row)}", flush=True)
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "pools": rows,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

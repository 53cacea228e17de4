#!/usr/bin/env python3
"""Pool-size ladder: one churn-large-style run per starting pool size,
timed layer by layer, so that growth with the pool shows.

    python3 bench/ladder.py [--src DIR] [--label NAME] [--out FILE]

For each starting pool n0 in 300, 1000 and 3000 the run uses perfbench's stationary churn
trace (``perfbench/workloads.py:churn_trace``: every worker leaves at
rate 0.05 and is replaced at once, trace seed 0) and churn-large's run
config (d=2, ``balanced``, ``pred-first``, seed 7, one task per time
unit, 200 tasks).  Each pool is run three times, since one run follows
the host's drift.  It records the event count, the median
``run_rotation`` seconds (with their min and max) and µs per event, the
median seconds of ``summarize_run``, ``dump_record``, ``load_record``
and ``validate_record``, the record's size, and the tracemalloc peak of
one more, traced ``run_rotation``.

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
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOLS = (300, 1000, 3000)
TRACE_SEED = 0
REPEATS = 3  # runs per pool; each timed layer stores its median
LAYERS = ("run_s", "summarize_run_s", "dump_record_s", "load_record_s", "validate_record_s")


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

    seconds: dict[str, list[float]] = {key: [] for key in LAYERS}

    def timed(key, fn, *args):
        t0 = clock()
        out = fn(*args)
        seconds[key].append(clock() - t0)
        return out

    path = tmp / f"record-{n0}.json"
    for _ in range(REPEATS):
        record = timed("run_s", run)
        timed("summarize_run_s", summarize_run, record, setup.weights)
        timed("dump_record_s", dump_record, record, path)
        record_mb = path.stat().st_size / 1e6
        doc = timed("load_record_s", load_record, path)
        path.unlink()
        report = timed("validate_record_s", validate_record, doc)
        if not report.ok:
            raise SystemExit(f"ladder: the n0={n0} record does not validate: {report}")
        del record, doc

    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    median = {key: statistics.median(xs) for key, xs in seconds.items()}
    return {
        "events": len(events),
        "repeats": REPEATS,
        "run_s": round(median["run_s"], 4),
        "run_s_min": round(min(seconds["run_s"]), 4),
        "run_s_max": round(max(seconds["run_s"]), 4),
        "us_per_event": round(median["run_s"] / len(events) * 1e6, 2),
        "summarize_run_s": round(median["summarize_run_s"], 4),
        "dump_record_s": round(median["dump_record_s"], 4),
        "record_mb": round(record_mb, 2),
        "load_record_s": round(median["load_record_s"], 4),
        "validate_record_s": round(median["validate_record_s"], 4),
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

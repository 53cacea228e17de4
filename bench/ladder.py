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
median seconds of ``summarize_run``, ``dump_record``, writing
``report.json``, ``load_record`` and ``validate_record``, the record's
size, and the tracemalloc peak of one more, traced ``run_rotation``.

A ``quiet`` section times one run of quiet-long's trace model, where
idle transitions dominate and each state's fixed cost sets the speed:
``churn_trace`` with 200 workers at rate 0.002 (trace seed 0), 2,000
tasks.  Each of REPEATS repeats times ``read_trace_file`` on the trace
written to a file, ``run_rotation``, ``summarize_run``, ``dump_record``
into a file that did not exist before, and writing ``report.json``, then
checks the record with ``validate_record``.  It stores each layer's
median in ms and in µs per state.

A ``small`` section then times ``next_state`` where its fixed cost per
call dominates: on fresh canonical states (ids g1..gm in ring order,
current g1, members by seniority) for n = 2..8 workers and m = 2..4
groups, every single departure (``balanced``) and one arrival per
deterministic choose kind, for d = 1 and 2, as acceptance criterion 6
compares them with its reference.  Every state is used for n <= 5; for
n = 6..8, every k-th state, at most SMALL_STATES of them.  Each call
gets a state built for it alone, outside the timer, so nothing cached
on one state object serves another.  Per n it stores the median over
REPEATS passes of µs per call.

A ``startup`` section measures what every grtc process pays before it
runs: in each of STARTUP_RUNS fresh interpreters, the seconds, the
growth of the resident set (read from /proc, so Linux only) and the
number of modules of ``import grtc, grtc.cli``, then one
``write_trace`` of churn-large's trace (400 workers, 8,000 events,
trace seed 0) into memory.  It stores the median of each, the write as
µs per event.  The interpreters inherit this one's environment, so a
host that sets PYTHONDONTWRITEBYTECODE compiles grtc in every one.

grtc is imported from ``--src`` (default: this checkout's ``src``), so
the same script measures another tree, for example a parent commit.
The results are stored under ``runs[LABEL]`` of ``--out``; the other
labels already in that file are kept.  Only the standard library is
used, and no test or gate reads the output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOLS = (300, 1000, 3000)
TRACE_SEED = 0
REPEATS = 3  # runs per pool; each timed layer stores its median
LAYERS = ("run_s", "summarize_run_s", "dump_record_s", "write_report_s", "load_record_s",
          "validate_record_s")
QUIET_LAYERS = ("read_trace", "run_rotation", "summarize_run", "dump_record", "write_report")
SMALL_NS = range(2, 9)
SMALL_STATES = 1000  # states per n at most; larger n take every k-th state
SMALL_KINDS = ("farthest", "concentrated", "balanced", "hybrid")
STARTUP_RUNS = 15  # fresh interpreters; each figure stores their median

# one fresh interpreter's start-up: argv holds perfbench's directory and
# the trace seed; prints one JSON object
STARTUP_PROBE = """
import io, json, resource, sys, time
def rss():  # resident bytes; ru_maxrss would keep the forking process's peak
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize()
rss0, modules = rss(), len(sys.modules)
t0 = time.perf_counter()
import grtc, grtc.cli
import_s = time.perf_counter() - t0
rss1, modules = rss(), len(sys.modules) - modules
sys.path.insert(0, sys.argv[1])
import workloads
p = workloads.RUN_WORKLOADS["churn-large"]
roster, events = workloads.churn_trace(int(sys.argv[2]), p["workers"], p["departure_rate"],
                                       p["duration"])
t0 = time.perf_counter()
grtc.write_trace(io.StringIO(), roster, events)
write_s = time.perf_counter() - t0
print(json.dumps({"import_s": import_s, "import_rss_mb": (rss1 - rss0) / 1e6,
                  "import_modules": modules, "events": len(events), "write_s": write_s}))
"""


def write_report(report: dict, path) -> None:
    """Write ``report.json`` as ``grtc run`` does."""
    try:
        from grtc.records import report_text
    except ImportError:  # a tree from before report_text wrote report.json this way
        text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    else:
        text = report_text(report)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def timer(keys) -> tuple[dict, object]:
    """Per key a list of seconds, and ``timed(key, fn, *args)``, which
    calls ``fn``, appends its seconds to the key's list and returns what
    it returned."""
    seconds: dict[str, list[float]] = {key: [] for key in keys}
    clock = time.perf_counter

    def timed(key, fn, *args):
        t0 = clock()
        out = fn(*args)
        seconds[key].append(clock() - t0)
        return out

    return seconds, timed


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

    def run():
        return run_rotation(initial, setup.policy, setup.strategies, setup.schedule,
                            events, config=setup.echo())

    seconds, timed = timer(LAYERS)
    path = tmp / f"record-{n0}.json"
    for _ in range(REPEATS):
        record = timed("run_s", run)
        report = timed("summarize_run_s", summarize_run, record, setup.weights)
        timed("dump_record_s", dump_record, record, path)
        timed("write_report_s", write_report, report, tmp / f"report-{n0}.json")
        record_mb = path.stat().st_size / 1e6
        doc = timed("load_record_s", load_record, path)
        path.unlink()
        result = timed("validate_record_s", validate_record, doc)
        if not result.ok:
            raise SystemExit(f"ladder: the n0={n0} record does not validate: {result}")
        del record, report, doc

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
        "write_report_s": round(median["write_report_s"], 4),
        "record_mb": round(record_mb, 2),
        "load_record_s": round(median["load_record_s"], 4),
        "validate_record_s": round(median["validate_record_s"], 4),
        "run_peak_mb": round(peak / 1e6, 2),
    }


def measure_quiet(workloads, tmp: Path) -> dict:
    """quiet-long's run, layer by layer: the medians in ms and µs per state."""
    from grtc.config import RunSetup
    from grtc.generator import run_rotation
    from grtc.metrics import summarize_run
    from grtc.records import dump_record, load_record
    from grtc.recordcheck import validate_record
    from grtc.traces import read_trace_file, write_trace_file

    p = workloads.RUN_WORKLOADS["quiet-long"]
    setup = RunSetup(dict(workloads.RUN_CONFIG,
                          schedule={"interval": 1.0, "count": p["tasks"]}))
    trace = tmp / "quiet.jsonl"
    write_trace_file(trace, *workloads.churn_trace(TRACE_SEED, p["workers"],
                                                   p["departure_rate"], p["duration"]))
    seconds, timed = timer(QUIET_LAYERS)
    for k in range(REPEATS):
        roster, events = timed("read_trace", read_trace_file, trace)
        record = timed("run_rotation", run_rotation, setup.initial_state(roster), setup.policy,
                       setup.strategies, setup.schedule, events, setup.echo())
        report = timed("summarize_run", summarize_run, record, setup.weights)
        path = tmp / f"quiet-{k}.json"  # a fresh file: no truncation is timed
        timed("dump_record", dump_record, record, path)
        timed("write_report", write_report, report, tmp / f"quiet-report-{k}.json")
        result = validate_record(load_record(path))
        if not result.ok:
            raise SystemExit(f"ladder: the quiet record does not validate: {result}")
        path.unlink()
    states = len(record.states)
    row = {"tasks": p["tasks"], "events": len(events), "states": states, "repeats": REPEATS}
    for key, xs in seconds.items():
        row[f"{key}_ms"] = round(statistics.median(xs) * 1e3, 2)
        row[f"{key}_us_per_state"] = round(statistics.median(xs) / states * 1e6, 2)
    return row


def canonical_states(n: int) -> list[tuple]:
    """(ring, members) of every canonical state of n workers in 2..4
    groups, in criterion 6's order."""
    from grtc.state import WorkerId
    workers = [WorkerId(f"w{i + 1}", i + 1) for i in range(n)]
    out = []
    for m in range(2, min(4, n) + 1):
        ring = tuple(f"g{k + 1}" for k in range(m))
        for assignment in itertools.product(range(m), repeat=n):
            if len(set(assignment)) != m:
                continue
            groups = [[] for _ in range(m)]
            for w, g in zip(workers, assignment):
                groups[g].append(w)
            out.append((ring, tuple(map(tuple, groups))))
    return out


def measure_small(n: int) -> dict:
    from grtc.errors import StallError
    from grtc.generator import next_state
    from grtc.operators import OperatorPolicy
    from grtc.state import RotationState
    from grtc.strategies import StrategySet
    from grtc.traces import WorkerEvent

    states = canonical_states(n)
    states = states[::math.ceil(len(states) / SMALL_STATES)]
    remove = StrategySet(choose="balanced", find_order="pred-first")
    plan = [(OperatorPolicy(d=d), strat, [WorkerEvent(1.0, op, worker)])
            for d in (1, 2)
            for strat, op, worker in
            [(remove, "depart", f"w{i + 1}") for i in range(n)]
            + [(StrategySet(choose=kind, find_order="pred-first"), "arrive", "a1")
               for kind in SMALL_KINDS]]
    clock = time.perf_counter
    passes = []
    for _ in range(REPEATS):
        elapsed = 0.0
        for ring, members in states:
            used = frozenset(ring)
            fresh = [RotationState(ring, members, "g1", 0, used, n + 1) for _ in plan]
            t0 = clock()
            for state, (policy, strat, batch) in zip(fresh, plan):
                try:
                    next_state(state, policy, strat, batch)
                except StallError:
                    pass
            elapsed += clock() - t0
        passes.append(elapsed)
    calls = len(states) * len(plan)
    return {"states": len(states), "calls": calls,
            "us_per_call": round(statistics.median(passes) / calls * 1e6, 2)}


def measure_startup(src: Path) -> dict:
    """The medians of STARTUP_RUNS fresh interpreters' start-up figures."""
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(ROOT / "perfbench"), str(TRACE_SEED)],
        env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(STARTUP_RUNS)]

    def median(key):
        return statistics.median(run[key] for run in runs)
    events = runs[0]["events"]
    return {
        "interpreters": STARTUP_RUNS,
        "import_s": round(median("import_s"), 4),
        "import_rss_mb": round(median("import_rss_mb"), 2),
        "import_modules": median("import_modules"),
        "trace_events": events,
        "write_trace_us_per_event": round(median("write_s") / events * 1e6, 3),
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
        quiet = measure_quiet(workloads, Path(tmp))
        print(f"{args.label}: quiet {json.dumps(quiet)}", flush=True)
    small = {}
    for n in SMALL_NS:
        small[f"n{n}"] = row = measure_small(n)
        print(f"{args.label}: small n={n} {json.dumps(row)}", flush=True)
    startup = measure_startup(Path(args.src).resolve())
    print(f"{args.label}: startup {json.dumps(startup)}", flush=True)
    doc.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "pools": rows,
        "quiet": quiet,
        "small": small,
        "startup": startup,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

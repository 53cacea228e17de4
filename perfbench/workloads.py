"""The benchmark's workloads and one measured pass over each.

A pass runs in a fresh interpreter so that import time, peak memory and
garbage-collector state belong to that pass alone:

    python3 perfbench/workloads.py MODE WORKLOAD SEED WORKDIR [--jobs N]

MODE is ``measure`` (tracing off), ``traced`` (spans on), ``ladder``
(pool-size ladder, churn-large only) or ``memory`` (tracemalloc,
quiet-long only).  The pass prints one JSON object as the last line of
its standard output.  Run it from the repository root; grtc is imported
from ``./src``.

Nothing here imports grtc at module level: the timed set-up starts
before ``import grtc``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import random
import resource
import shutil
import sys
import time
from pathlib import Path

WORKLOADS = ("churn-large", "quiet-long", "sweep-grid", "census-tiny")

RUN_CONFIG = {
    "d": 2, "max_multiplier": 2, "choose": "balanced",
    "find": {"order": "pred-first", "horizon": "unlimited"},
    "weights": {"alpha": 1.0, "beta": 0.25, "gamma": 0.5},
    "seed": 7,
}

# Trace models of the two single-run workloads: stationary churn where
# each worker leaves at rate departure_rate and is replaced at once, so the
# pool stays at its starting size (see churn_trace).  One task per time unit.
RUN_WORKLOADS = {
    # Event-heavy, big ring: per-event O(m) scans dominate.
    "churn-large": {"workers": 400, "departure_rate": 0.05, "duration": 200,
                    "tasks": 200},
    # Mostly idle transitions: per-state costs (metrics, records) dominate.
    "quiet-long": {"workers": 200, "departure_rate": 0.002, "duration": 2000,
                   "tasks": 2000},
}

SWEEP_JOBS = 2
SWEEP_RUNS = 120

CENSUS_KINDS = ("farthest", "concentrated", "balanced", "hybrid")
CENSUS_CASES = 52176

LADDER_POOLS = (50, 100, 200, 400)


def sweep_spec(seed: int) -> dict:
    """The demo sweep widened to every strategy axis; 120 short runs.

    A sweep run's trace seed is its run seed, so the benchmark seed picks
    the pair of run seeds (seed 0 gives runs seeded 1 and 2)."""
    return {
        "choose": ["random", "farthest", "concentrated", "balanced", "hybrid"],
        "find_order": ["pred-first", "succ-first"],
        "horizon": [1, "unlimited"],
        "d": [1, 2, 3],
        "max_multiplier": [2],
        "seeds": [2 * seed + 1, 2 * seed + 2],
        "schedule": {"interval": 1.0, "count": 200},
        "weights": RUN_CONFIG["weights"],
        "trace": {"duration": 200, "arrival_rate": 1.0, "departure_rate": 0.05,
                  "initial_workers": 20},
    }


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def import_grtc():
    """Import grtc from ./src and refuse any other copy."""
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import grtc
    import grtc.cli
    if Path(grtc.__file__).resolve().parent != (src / "grtc").resolve():
        raise SystemExit(f"perfbench: imported grtc from {grtc.__file__}, not ./src")
    return grtc


def cli(argv: list[str]) -> tuple[int, str]:
    """``grtc.cli.main`` with its standard output captured.  An exception
    escaping grtc is a failed command (exit code 1), not a harness error."""
    import grtc.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = grtc.cli.main(argv)
        except Exception as e:  # noqa: BLE001 - any crash is a failed operation
            print(f"{type(e).__name__}: {e}")
            code = 1
    return code, buf.getvalue()


# -- inputs ------------------------------------------------------------------


def build_inputs(name: str, seed: int, work: Path) -> dict:
    """Everything a pass needs before anything is timed: trace file and
    config (single runs), sweep spec (sweep), the state census (census)."""
    import grtc
    work.mkdir(parents=True, exist_ok=True)
    if name in RUN_WORKLOADS:
        p = RUN_WORKLOADS[name]
        roster, events = churn_trace(seed, p["workers"], p["departure_rate"],
                                     p["duration"])
        grtc.traces.write_trace_file(work / "trace.jsonl", roster, events)
        config = dict(RUN_CONFIG, schedule={"interval": 1.0, "count": p["tasks"]})
        (work / "config.json").write_text(json.dumps(config, indent=1))
        return {"tasks": p["tasks"]}
    if name == "sweep-grid":
        (work / "sweep.json").write_text(json.dumps(sweep_spec(seed), indent=1))
        return {}
    if name == "census-tiny":
        return {"census": census_states()}
    raise SystemExit(f"perfbench: unknown workload {name!r}")


def churn_trace(seed: int, workers: int, departure_rate: float,
                duration: float) -> tuple[list[str], list]:
    """Stationary churn with the pool held at ``workers``.

    The run is cut into ``departure_rate * workers * duration`` equal
    slices; each holds one departure at a seeded offset, of a present
    worker drawn uniformly (as memoryless sojourns give), followed at the
    same instant by a newcomer's arrival.  Unlike independent Poisson
    arrivals and exponential sojourns, whose pool size wanders by several
    percent from seed to seed, this keeps the event count and the ring
    size, and so the cost of a run, the same for every seed."""
    from grtc.traces import WorkerEvent
    rng = random.Random(f"perfbench-churn:{seed}")
    present = [f"w{i + 1}" for i in range(workers)]
    roster = list(present)
    departures = round(departure_rate * workers * duration)
    events = []
    for k in range(departures):
        t = (k + rng.random()) * duration / departures
        i = rng.randrange(workers)
        newcomer = f"w{workers + k + 1}"
        events.append(WorkerEvent(t, "depart", present[i]))
        events.append(WorkerEvent(t, "arrive", newcomer))
        present[i] = newcomer
    return roster, events


def census_states() -> list[tuple]:
    """Every canonical state with 2 <= n <= 6 workers and 2 <= m <= 4
    groups: ids g1..gm in ring order, current g1, members by seniority.
    Each entry holds the fields a fresh RotationState is built from."""
    from grtc.state import WorkerId
    out = []
    for n in range(2, 7):
        workers = [WorkerId(f"w{i + 1}", i + 1) for i in range(n)]
        for m in range(2, min(4, n) + 1):
            ring = tuple(f"g{k + 1}" for k in range(m))
            used = frozenset(ring)
            for assignment in itertools.product(range(m), repeat=n):
                if len(set(assignment)) != m:
                    continue
                groups = [[] for _ in range(m)]
                for w, g in zip(workers, assignment):
                    groups[g].append(w)
                out.append((n, ring, tuple(tuple(g) for g in groups), used))
    return out


# -- the measured operations ---------------------------------------------------


def run_pass(name: str, work: Path, inputs: dict) -> dict:
    """``grtc run`` then ``grtc validate``; checks the two outputs agree."""
    out_dir = work / "out"
    t0 = time.perf_counter()
    run_code, run_text = cli(["run", str(work / "config.json"),
                       "--trace", str(work / "trace.jsonl"), "--out", str(out_dir)])
    t1 = time.perf_counter()
    validate_code, validate_text = cli(["validate", str(out_dir / "record.json")])
    t2 = time.perf_counter()

    res = {"attempted": 2, "failed": int(run_code != 0) + int(validate_code != 0),
           "times": {"run_s": t1 - t0, "validate_s": t2 - t1, "wall_s": t2 - t0},
           "work": inputs["tasks"], "work_s": t1 - t0, "notes": []}
    if run_code != 0:
        res["notes"].append(f"grtc run exited {run_code}: {run_text[-500:]}")
        return res
    if validate_code != 0:
        res["notes"].append(f"grtc validate exited {validate_code}: "
                            + validate_text[-500:])
    record_path, report_path = out_dir / "record.json", out_dir / "report.json"
    res["record_mb"] = record_path.stat().st_size / 1e6
    res["digests"] = {"record.json": sha256_file(record_path),
                      "report.json": sha256_file(report_path)}
    with open(record_path, encoding="utf-8") as f:
        record = json.load(f)
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    res["states"] = len(record["states"])
    res["counts"] = change_counts(record["change_logs"])
    res["attempted"] += 1
    mismatch = report_mismatch(record, report, res["counts"])
    if mismatch:
        res["failed"] += 1
        res["notes"].append(f"report.json disagrees with record.json: {mismatch}")
    shutil.rmtree(out_dir)
    return res


def change_counts(change_logs: list[list[dict]]) -> dict:
    ops = {"split": "splits", "joined": "joins", "donated": "donations",
           "inserted": "inserted", "removed": "removed"}
    counts = dict.fromkeys(ops.values(), 0)
    for log in change_logs:
        for entry in log:
            key = ops.get(entry["op"])
            if key:
                counts[key] += 1
    return counts


def report_mismatch(record: dict, report: dict, counts: dict) -> str:
    """Cross-check report.json against the record it summarizes."""
    want = {"counts": counts,
            "transitions": len(record["change_logs"]),
            "group_counts": [len(s["ring"]) for s in record["states"]],
            "stall_time": sum(s["duration"] for s in record["stalls"])}
    got = {"counts": report.get("counts"),
           "transitions": report.get("transitions"),
           "group_counts": report.get("group_counts"),
           "stall_time": report.get("stall_time")}
    return "; ".join(k for k in want if want[k] != got[k])


def sweep_pass(work: Path, jobs: int) -> dict:
    """``grtc sweep --jobs N``; every row must be an error-free run."""
    out_dir = work / "out"
    t0 = time.perf_counter()
    code, text = cli(["sweep", str(work / "sweep.json"), "--out", str(out_dir),
                   "--jobs", str(jobs)])
    t1 = time.perf_counter()
    res = {"attempted": 1, "failed": int(code != 0),
           "times": {"sweep_s": t1 - t0, "wall_s": t1 - t0},
           "work": SWEEP_RUNS, "work_s": t1 - t0, "notes": []}
    if code != 0:
        res["notes"].append(f"grtc sweep exited {code}: {text[-500:]}")
        return res
    csv_path = out_dir / "sweep.csv"
    with open(csv_path, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    errors = [r for r in rows if r["error"]]
    res["attempted"] = SWEEP_RUNS
    res["failed"] = len(errors) + max(0, SWEEP_RUNS - len(rows))
    if len(rows) != SWEEP_RUNS:
        res["notes"].append(f"sweep.csv has {len(rows)} rows, expected {SWEEP_RUNS}")
    if errors:
        res["notes"].append(f"first error row: {errors[0]['run_id']}: {errors[0]['error']}")
    res["error_rows"] = len(errors)
    res["digests"] = {"sweep.csv": sha256_file(csv_path)}
    res["counts"] = {k: sum(int(r[k] or 0) for r in rows)
                     for k in ("splits", "joins", "donations")}
    shutil.rmtree(out_dir)
    return res


def census_pass(inputs: dict) -> dict:
    """Every single departure (balanced) and one arrival per deterministic
    choose kind, for d in {1, 2}, through ``next_state``.

    Each case gets a freshly built state, so nothing computed for one
    state object is reused by the next case.  Only the transitions are
    timed; outcomes are hashed in order between timed chunks."""
    import grtc
    from grtc.errors import StallError
    from grtc.operators import OperatorPolicy
    from grtc.state import RotationState
    from grtc.strategies import StrategySet
    from grtc.traces import WorkerEvent

    generator = grtc.generator  # looked up per call so tracing wrappers apply
    policies = [OperatorPolicy(d=d, max_multiplier=2) for d in (1, 2)]
    remove_strat = StrategySet(choose="balanced", find_order="pred-first")
    insert_strats = [StrategySet(choose=k, find_order="pred-first") for k in CENSUS_KINDS]
    arrival = [WorkerEvent(1.0, "arrive", "a1")]
    departures = [[WorkerEvent(1.0, "depart", f"w{i + 1}")] for i in range(6)]
    plans = {n: [(remove_strat, batch) for batch in departures[:n]]
             + [(strat, arrival) for strat in insert_strats] for n in range(2, 7)}

    digest = hashlib.sha256()
    counts = dict.fromkeys(("splits", "joins", "donations"), 0)
    kinds = {"split": "splits", "joined": "joins", "donated": "donations"}
    elapsed = 0.0
    cases = stalls = failed = 0
    notes: list[str] = []
    clock = time.perf_counter
    for n, ring, members, used in inputs["census"]:
        outcomes = []
        t0 = clock()
        for policy in policies:
            for strat, batch in plans[n]:
                state = RotationState(ring, members, "g1", 0, used, n + 1)
                try:
                    outcomes.append(generator.next_state(state, policy, strat, batch))
                except StallError:
                    outcomes.append(None)
                except Exception as e:  # noqa: BLE001 - a failed case is data
                    outcomes.append(e)
        elapsed += clock() - t0
        for out in outcomes:
            cases += 1
            if out is None:
                stalls += 1
                digest.update(b"stall\n")
            elif isinstance(out, Exception):
                failed += 1
                if len(notes) < 3:
                    notes.append(f"census case raised {type(out).__name__}: {out}")
                digest.update(f"error {type(out).__name__}\n".encode())
            else:
                state, log = out
                entries = [e.to_dict() for e in log]
                for e in entries:
                    if e["op"] in kinds:
                        counts[kinds[e["op"]]] += 1
                digest.update(repr((
                    state.ring,
                    tuple(tuple((w.token, w.seq) for w in ms) for ms in state.members),
                    state.current, state.step_index, entries)).encode() + b"\n")
    if cases != CENSUS_CASES:
        failed += 1
        notes.append(f"census ran {cases} cases, expected {CENSUS_CASES}")
    return {"attempted": cases, "failed": failed,
            "times": {"census_s": elapsed, "wall_s": elapsed},
            "work": cases, "work_s": elapsed, "stalls": stalls, "counts": counts,
            "notes": notes,
            "digests": {"outcomes": digest.hexdigest()}}


def measured_ops(name: str, work: Path, inputs: dict, jobs: int) -> dict:
    if name in RUN_WORKLOADS:
        return run_pass(name, work, inputs)
    if name == "sweep-grid":
        return sweep_pass(work, jobs)
    return census_pass(inputs)


# -- pass modes ----------------------------------------------------------------


def mode_measure(name: str, seed: int, work: Path, jobs: int) -> dict:
    t0 = time.perf_counter()
    import_grtc()
    inputs = build_inputs(name, seed, work)
    setup_s = time.perf_counter() - t0
    res = measured_ops(name, work, inputs, jobs)
    res["setup_s"] = setup_s
    res["peak_rss_mb"] = peak_rss_mb()
    return res


def mode_traced(name: str, seed: int, work: Path, jobs: int) -> dict:
    from tracing import Tracer, percentile_us
    import_grtc()
    tracer = Tracer()
    tracer.install()
    try:
        inputs = build_inputs(name, seed, work)
        res = measured_ops(name, work, inputs, jobs)
    finally:
        tracer.uninstall()
    res["layers"] = tracer.summary()
    res["counters"] = dict(tracer.counts)
    tracer.dump(work / "spans.json.gz")
    res["spans"] = len(tracer.names)
    for s in res["layers"].values():
        durations = s.pop("durations")
        s["us_p50"] = percentile_us(durations, 50)
        s["us_p95"] = percentile_us(durations, 95)
    return res


def mode_ladder(seed: int) -> dict:
    """churn-large's trace model at growing pool sizes, simulation only."""
    grtc = import_grtc()
    p = RUN_WORKLOADS["churn-large"]
    config = dict(RUN_CONFIG, schedule={"interval": 1.0, "count": p["tasks"]})
    setup = grtc.config.RunSetup(config)
    out = {}
    for n0 in LADDER_POOLS:
        roster, events = churn_trace(seed, n0, p["departure_rate"], p["duration"])
        initial = setup.initial_state(roster)
        t0 = time.perf_counter()
        grtc.generator.run_rotation(initial, setup.policy, setup.strategies,
                                    setup.schedule, events)
        wall = time.perf_counter() - t0
        out[f"n{n0}"] = {"events": len(events), "run_s": wall,
                         "us_per_event": wall / len(events) * 1e6}
    return {"ladder": out, "attempted": len(LADDER_POOLS), "failed": 0, "notes": []}


def mode_memory(name: str, seed: int, work: Path) -> dict:
    """Peak traced allocation of the simulation and of writing then
    re-reading the record, each counted from the start of its phase."""
    import tracemalloc
    grtc = import_grtc()
    build_inputs(name, seed, work)
    setup = grtc.config.RunSetup(json.loads((work / "config.json").read_text()))
    roster, events = grtc.traces.read_trace_file(work / "trace.jsonl")
    initial = setup.initial_state(roster)

    tracemalloc.start()
    record = grtc.generator.run_rotation(initial, setup.policy, setup.strategies,
                                         setup.schedule, events, config=setup.echo())
    run_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    path = work / "record.json"
    tracemalloc.start()
    grtc.records.dump_record(record, path)
    grtc.records.load_record(path)
    records_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    path.unlink()
    return {"run_rotation_peak_mb": run_peak / 1e6, "records_peak_mb": records_peak / 1e6,
            "attempted": 1, "failed": 0, "notes": []}


def main(argv: list[str]) -> int:
    if len(argv) not in (4, 6) or (len(argv) == 6 and argv[4] != "--jobs"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, name, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    jobs = int(argv[5]) if len(argv) == 6 else SWEEP_JOBS
    if name not in WORKLOADS:
        print(f"perfbench: unknown workload {name!r}", file=sys.stderr)
        return 2
    if mode == "measure":
        res = mode_measure(name, seed, work, jobs)
    elif mode == "traced":
        res = mode_traced(name, seed, work, jobs)
    elif mode == "ladder":
        res = mode_ladder(seed)
    elif mode == "memory":
        res = mode_memory(name, seed, work)
    else:
        print(f"perfbench: unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Design-space sweeps: the cartesian product of strategy axes, one CSV
row and one report per combination.  Combinations that differ only in
what cannot change a result (the find horizon) share one simulated run.

Rows are emitted in deterministic axis order no matter how many worker
processes execute the runs, so a sweep's CSV is byte-stable across
repetitions and parallelism degrees.  A combination that grtc rejects
(a ``GrtcError``) becomes an error row and the sweep continues; any other
exception is a bug and aborts the sweep.

Runs that share a trace run back to back, and each process keeps the
last trace it generated, so a sweep generates each trace once per
process.  The process pool is imported only by a sweep that uses one.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import NamedTuple

from .config import RunSetup, known_keys, number, parse_horizon
from .errors import ConfigError, GrtcError
from .generator import TaskSchedule, build_initial_state, run_rotation
from .metrics import StressWeights, summarize_run
from .operators import OperatorPolicy
from .records import report_text
from .strategies import StrategySet
from .traces import TRACE_KEYS, TraceConfig, generate_trace

AXIS_ORDER = ("choose", "find_order", "horizon", "d", "max_multiplier", "seeds")
SPEC_KEYS = (*AXIS_ORDER, "schedule", "weights", "trace")

DEFAULT_AXES = {
    "choose": ["balanced"],
    "find_order": ["pred-first"],
    "horizon": ["unlimited"],
    "d": [2],
    "max_multiplier": [2],
    "seeds": [0],
}


CSV_COLUMNS = [
    "run_id", "choose", "find_order", "horizon", "d", "max_multiplier", "seed",
    "mean_m", "burden", "total_drop", "total_rise", "total_moves",
    "stress_score", "splits", "joins", "donations", "stall_time", "error",
]


def config_columns(run_id: str, config: dict) -> dict:
    """The CSV columns that identify a run: its id and its config axes."""
    find = config.get("find", {})
    return {
        "run_id": run_id,
        "choose": config.get("choose", ""),
        "find_order": find.get("order", ""),
        "horizon": find.get("horizon", ""),
        "d": config.get("d", ""),
        "max_multiplier": config.get("max_multiplier", ""),
        "seed": config.get("seed", ""),
    }


def report_columns(report: dict) -> dict:
    """The CSV columns of a run that completed: the headline figures of
    its report."""
    totals, counts = report["totals"], report["counts"]
    return {
        "mean_m": repr(report["mean_m"]),
        "burden": repr(report["burden"]),
        "total_drop": totals["drop"],
        "total_rise": totals["rise"],
        "total_moves": totals["moves"],
        "stress_score": repr(totals["stress"]),
        "splits": counts["splits"],
        "joins": counts["joins"],
        "donations": counts["donations"],
        "stall_time": repr(report["stall_time"]),
        "error": "",
    }


def expand(spec: dict) -> list[dict]:
    """All run configs for a sweep spec, in axis order."""
    if not isinstance(spec, dict):
        raise ConfigError(f"sweep spec must be an object, got {type(spec).__name__}")
    known_keys(spec, "sweep", SPEC_KEYS)
    axes = []
    for name in AXIS_ORDER:
        values = spec.get(name, DEFAULT_AXES[name])
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {name!r} must be a non-empty list")
        axes.append(values)
    if "trace" not in spec:
        raise ConfigError("sweep spec needs a 'trace' section")
    if "schedule" not in spec:
        raise ConfigError("sweep spec needs a 'schedule' section")
    if not isinstance(spec["trace"], dict):
        raise ConfigError(f"sweep.trace must be an object, got {type(spec['trace']).__name__}")
    if "seed" in spec["trace"]:
        raise ConfigError("sweep.trace.seed is not allowed: the seeds axis sets "
                          "each run's trace seed")
    known_keys(spec["trace"], "sweep.trace", tuple(TRACE_KEYS))
    for k, seed in enumerate(axes[-1]):
        number(seed, f"sweep.seeds[{k}]", int)

    combos = []
    for choose, order, horizon, d, mult, seed in itertools.product(*axes):
        parse_horizon(horizon)  # fail fast on bad axis values
        combos.append({
            "d": d,
            "max_multiplier": mult,
            "choose": choose,
            "find": {"order": order, "horizon": horizon},
            "weights": spec.get("weights", {}),
            "seed": seed,
            "schedule": spec["schedule"],
            "trace": spec["trace"],
        })
    return combos


class RunKey(NamedTuple):
    """Everything one simulation reads, parsed: equal keys make equal
    reports.  A combination's horizon is not part of it, since it cannot
    change a result, so a sweep's horizon values share one simulation."""

    policy: OperatorPolicy
    choose: str
    find_order: str
    seed: int
    weights: StressWeights
    schedule: TaskSchedule
    trace: TraceConfig


def _parse(config: dict, canonical: dict) -> RunKey | str:
    """A combination's key, or the message of the ``GrtcError`` that
    rejects it.  Equal keys, and equal parts of keys, come out of
    ``canonical`` as one object, so a sweep holds each distinct value
    (a 200-task schedule, say) once however many combinations share it."""
    try:
        setup = RunSetup({k: v for k, v in config.items() if k != "trace"})
        trace = TraceConfig.from_spec(config["trace"], setup.seed)
    except GrtcError as e:  # a bad combination is a row; a bug aborts the sweep
        return str(e)
    parts = (setup.policy, setup.strategies.choose, setup.strategies.find_order,
             setup.seed, setup.weights, setup.schedule, trace)
    key = RunKey(*[canonical.setdefault(part, part) for part in parts])
    return canonical.setdefault(key, key)


# this process's last trace: {TraceConfig: (roster, events)}, at most one entry
_trace: dict = {}


def run_combo(key: RunKey) -> dict:
    """Execute one distinct simulation; returns its report document.
    The trace of the previous call is reused when the configs are equal
    (no run mutates its roster or events), so a process holds one trace."""
    trace = _trace.get(key.trace)
    if trace is None:
        _trace.clear()
        trace = _trace[key.trace] = generate_trace(key.trace)
    roster, events = trace
    strategies = StrategySet.seeded(key.choose, key.find_order, key.seed)
    record = run_rotation(build_initial_state(roster, key.policy), key.policy,
                          strategies, key.schedule, events)
    return summarize_run(record, key.weights)


def _simulate(key: RunKey) -> tuple[dict, str | None]:
    """One simulation's CSV columns and, if it completed, its
    ``report.json`` text, encoded here so that a pool's workers encode in
    parallel."""
    try:
        report = run_combo(key)
    except GrtcError as e:  # a row for each combination that shares the run
        return {"error": str(e)}, None
    return report_columns(report), report_text(report)


def execute(spec: dict, out_dir, jobs: int = 1) -> Path:
    """Run the whole sweep; write sweep.csv plus one report JSON per run.

    Every combination is parsed here, and each distinct simulation runs
    once, grouped by trace: the runs that share a ``TraceConfig`` run back
    to back, the groups and the runs within one in order of first
    occurrence.  The combinations that share a simulation share its
    report.  Rows and reports are written in combination order.  Returns
    the CSV path.
    """
    combos = expand(spec)
    canonical: dict = {}
    keys = [_parse(config, canonical) for config in combos]
    by_trace: dict = {}
    for key in dict.fromkeys(keys):
        if isinstance(key, RunKey):
            by_trace.setdefault(key.trace, []).append(key)
    runs = [key for group in by_trace.values() for key in group]
    out_dir = Path(out_dir)
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)

    try:
        if jobs > 1:  # map returns the results in input order
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outcomes = dict(zip(runs, pool.map(_simulate, runs, chunksize=1)))
        else:
            outcomes = {key: _simulate(key) for key in runs}
    finally:
        _trace.clear()  # a finished sweep holds no trace

    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for index, (config, key) in enumerate(zip(combos, keys)):
            run_id = f"run-{index:04d}"
            columns, text = outcomes[key] if isinstance(key, RunKey) else ({"error": key}, None)
            row = dict.fromkeys(CSV_COLUMNS, "")
            row.update(config_columns(run_id, config))
            row.update(columns)
            writer.writerow(row)
            if text is not None:
                with open(reports_dir / f"{run_id}.json", "w", encoding="utf-8") as rf:
                    rf.write(text)
    return csv_path


__all__ = ["CSV_COLUMNS", "RunKey", "expand", "run_combo", "execute"]

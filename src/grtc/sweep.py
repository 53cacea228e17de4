"""Design-space sweeps: the cartesian product of strategy axes, one
simulated run per combination, one CSV row per run.

Rows are emitted in deterministic axis order no matter how many worker
processes execute the runs, so a sweep's CSV is byte-stable across
repetitions and parallelism degrees.  A combination that grtc rejects
(a ``GrtcError``) becomes an error row and the sweep continues; any other
exception is a bug and aborts the sweep.
"""

from __future__ import annotations

import csv
import itertools
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import RunSetup, known_keys, number, parse_horizon
from .errors import ConfigError, GrtcError
from .generator import run_rotation
from .metrics import summarize_run
from .records import report_text
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


def csv_row(run_id: str, config: dict, report: dict) -> dict:
    """The CSV row of a run that completed: its config columns and the
    headline figures of its report."""
    totals, counts = report["totals"], report["counts"]
    return {
        **config_columns(run_id, config),
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


def run_combo(config: dict) -> dict:
    """Execute one combination; returns its report document."""
    setup = RunSetup({k: v for k, v in config.items() if k != "trace"})
    roster, events = generate_trace(TraceConfig.from_spec(config["trace"], setup.seed))
    initial = setup.initial_state(roster)
    record = run_rotation(initial, setup.policy, setup.strategies, setup.schedule, events)
    return summarize_run(record, setup.weights)


def _run_indexed(args: tuple[int, dict]) -> tuple[dict, str | None]:
    """One combination's CSV row and, if it completed, its ``report.json``
    text, encoded here so that a pool's workers encode in parallel."""
    index, config = args
    run_id = f"run-{index:04d}"
    try:
        report = run_combo(config)
    except GrtcError as e:  # a bad combination is a row; a bug aborts the sweep
        row = dict.fromkeys(CSV_COLUMNS, "")
        row.update(config_columns(run_id, config), error=str(e))
        return row, None
    return csv_row(run_id, config, report), report_text(report)


def execute(spec: dict, out_dir, jobs: int = 1) -> Path:
    """Run the whole sweep; write sweep.csv plus one report JSON per run.

    Returns the CSV path.
    """
    combos = expand(spec)
    out_dir = Path(out_dir)
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)

    tasks = list(enumerate(combos))
    if jobs > 1:  # map returns the results in input order
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_indexed, tasks, chunksize=1))
    else:
        results = [_run_indexed(t) for t in tasks]

    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for index, (row, text) in enumerate(results):
            writer.writerow(row)
            if text is not None:
                with open(reports_dir / f"run-{index:04d}.json", "w",
                          encoding="utf-8") as rf:
                    rf.write(text)
    return csv_path


__all__ = ["CSV_COLUMNS", "csv_row", "expand", "run_combo", "execute"]

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
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import RunSetup, number, parse_horizon
from .errors import ConfigError, GrtcError
from .generator import run_rotation
from .metrics import CSV_COLUMNS, config_columns, summarize_run
from .traces import TraceConfig, generate_trace

AXIS_ORDER = ("choose", "find_order", "horizon", "d", "max_multiplier", "seeds")

DEFAULT_AXES = {
    "choose": ["balanced"],
    "find_order": ["pred-first"],
    "horizon": ["unlimited"],
    "d": [2],
    "max_multiplier": [2],
    "seeds": [0],
}


def expand(spec: dict) -> list[dict]:
    """All run configs for a sweep spec, in axis order."""
    if not isinstance(spec, dict):
        raise ConfigError(f"sweep spec must be an object, got {type(spec).__name__}")
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


def run_combo(config: dict) -> tuple[dict, dict]:
    """Execute one combination; returns (csv row, full report dict)."""
    setup = RunSetup(config)
    roster, events = generate_trace(TraceConfig.from_spec(config["trace"], setup.seed))
    initial = setup.initial_state(roster)
    record = run_rotation(initial, setup.policy, setup.strategies,
                          setup.schedule, events, config=setup.echo())
    report = summarize_run(record, setup.weights)
    return report.csv_row("", config), report.to_dict()


def _run_indexed(args: tuple[int, dict]) -> tuple[int, dict, dict | None, str]:
    index, config = args
    run_id = f"run-{index:04d}"
    try:
        row, report = run_combo(config)
        row["run_id"] = run_id
        return index, row, report, ""
    except GrtcError as e:  # a bad combination is a row; a bug aborts the sweep
        row = dict.fromkeys(CSV_COLUMNS, "")
        row.update(config_columns(run_id, config), error=str(e))
        return index, row, None, str(e)


def execute(spec: dict, out_dir, jobs: int = 1) -> Path:
    """Run the whole sweep; write sweep.csv plus one report JSON per run.

    Returns the CSV path.
    """
    combos = expand(spec)
    out_dir = Path(out_dir)
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)

    tasks = list(enumerate(combos))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_indexed, tasks, chunksize=1))
    else:
        results = [_run_indexed(t) for t in tasks]
    results.sort(key=lambda r: r[0])

    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for index, row, report, _error in results:
            writer.writerow(row)
            if report is not None:
                with open(reports_dir / f"run-{index:04d}.json", "w",
                          encoding="utf-8") as rf:
                    json.dump(report, rf, indent=1, sort_keys=True)
                    rf.write("\n")
    return csv_path


__all__ = ["expand", "run_combo", "execute"]

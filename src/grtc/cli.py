"""Batch front door.

    grtc run CONFIG [--trace FILE | --trace-config FILE] --out DIR
    grtc sweep SPEC --out DIR [--jobs N]
    grtc validate RECORD
    grtc gen-trace --seed S --duration D --arrival-rate A
                   --departure-rate B --initial N --out FILE

Exit codes: 0 on success (validate: record is clean), 1 on configuration
or input errors and on validation findings.  Stalled intervals inside a
run are ordinary data, never an error exit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import RunSetup, load_json, number
from .errors import ConfigError, GrtcError
from .generator import run_rotation
from .metrics import summarize_run
from .records import dump_record, load_record, report_text
from .recordcheck import validate_record
from .sweep import execute as execute_sweep
from .traces import TraceConfig, generate_trace, read_trace_file, write_trace_file


def cmd_run(args) -> int:
    config = load_json(args.config)
    setup = RunSetup(config)
    if args.trace and args.trace_config:
        raise GrtcError("give either --trace or --trace-config, not both")
    if args.trace:
        roster, events = read_trace_file(args.trace)
    elif args.trace_config:
        spec = load_json(args.trace_config)
        seed = setup.seed
        if isinstance(spec, dict) and "seed" in spec:
            seed = number(spec["seed"], "trace.seed", int)
        roster, events = generate_trace(TraceConfig.from_spec(spec, seed))
    else:
        roster, events = None, []

    initial = setup.initial_state(roster)
    record = run_rotation(initial, setup.policy, setup.strategies,
                          setup.schedule, events, config=setup.echo())
    report = summarize_run(record, setup.weights)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_record(record, out / "record.json")
    with open(out / "report.json", "w", encoding="utf-8") as f:
        f.write(report_text(report))
    print(f"wrote {out / 'record.json'} and {out / 'report.json'}")
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    spec = load_json(args.spec)
    csv_path = execute_sweep(spec, args.out, jobs=args.jobs)
    print(f"wrote {csv_path}")
    return 0


def cmd_validate(args) -> int:
    doc = load_record(args.record)
    result = validate_record(doc)
    for finding in result.violations:
        print(finding)
    for finding in result.warnings:
        print(f"(warning) {finding}")
    if result.ok:
        print(f"{args.record}: clean "
              f"({len(doc['states'])} states, {len(result.warnings)} warnings)")
        return 0
    print(f"{args.record}: {len(result.violations)} violation(s)")
    return 1


def cmd_gen_trace(args) -> int:
    config = TraceConfig(
        seed=args.seed,
        duration=args.duration,
        arrival_rate=args.arrival_rate,
        departure_rate=args.departure_rate,
        initial_workers=args.initial,
    )
    roster, events = generate_trace(config)
    write_trace_file(args.out, roster, events)
    print(f"wrote {args.out} ({len(roster)} initial workers, {len(events)} events)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grtc",
        description="Simulate group rotations over worker arrival/departure "
                    "traces and explore restructuring strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one configuration")
    p.add_argument("config", help="run configuration JSON")
    p.add_argument("--trace", help="worker event trace (JSON Lines)")
    p.add_argument("--trace-config", help="synthetic trace settings JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run the cartesian strategy sweep")
    p.add_argument("spec", help="sweep specification JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="independently re-check a run record")
    p.add_argument("record", help="record JSON produced by 'run'")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen-trace", help="generate a synthetic worker trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=100.0)
    p.add_argument("--arrival-rate", type=float, default=1.0)
    p.add_argument("--departure-rate", type=float, default=0.1)
    p.add_argument("--initial", type=int, default=4)
    p.add_argument("--out", required=True, help="trace output path")
    p.set_defaults(func=cmd_gen_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GrtcError, OSError) as e:  # anything else is a bug, not bad input
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

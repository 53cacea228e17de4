#!/usr/bin/env python3
"""One full simulated rotation: synthesize a worker churn trace, drive
the rotation over a task schedule, inspect stalls and restructuring,
then re-validate the produced record independently and score it.

Run: python3 demos/02_single_run.py
"""

from collections import Counter

from grtc import (
    OperatorPolicy,
    StrategySet,
    TaskSchedule,
    TraceConfig,
    build_initial_state,
    generate_trace,
    record_to_dict,
    run_rotation,
    summarize_run,
    validate_record,
)

# A pool that hovers around 10 workers: arrivals at rate 0.5/unit,
# individual sojourns averaging 20 units (rate 0.05), so E[n] = 10.
trace_config = TraceConfig(seed=2024, duration=120.0, arrival_rate=0.5,
                           departure_rate=0.05, initial_workers=10)
roster, events = generate_trace(trace_config)
print(f"trace: {len(roster)} initial workers, {len(events)} events "
      f"({Counter(e.op for e in events)})")

policy = OperatorPolicy(d=2, max_multiplier=2)
strategies = StrategySet.seeded(choose="hybrid", find_order="pred-first",
                                seed=2024)
initial = build_initial_state(roster, policy)
schedule = TaskSchedule.periodic(interval=1.0, count=120)

record = run_rotation(initial, policy, strategies, schedule, events,
                      config={"d": 2, "choose": "hybrid", "seed": 2024})

print(f"\npublished {len(record.states)} states over {len(schedule.times)} "
      f"task times")
if record.stalls:
    for start, duration in record.stalls:
        print(f"  stalled at t={start} for {duration} time units")
else:
    print("  no stalls: the pool never starved")

ops = Counter(e.to_dict()["op"] for log in record.change_logs for e in log)
print(f"  restructuring events: {dict(ops)}")

# The record is plain data; the validator re-checks it from the
# serialized form alone (structure, rotation legality, log replay).
doc = record_to_dict(record)
result = validate_record(doc)
print(f"\nindependent validation: {'clean' if result.ok else result.violations}"
      f" ({len(doc['states'])} states, {len(result.warnings)} warnings)")

report = summarize_run(record)  # the report.json document
totals = report["totals"]
print("\ntradeoff metrics:")
print(f"  group count   mean {report['mean_m']:.2f} (min {report['min_m']}, "
      f"max {report['max_m']})")
print(f"  burden        {report['burden']:.3f} (share of tasks per worker, ~1/m)")
print(f"  stress score  {totals['stress']:.1f} total "
      f"({totals['drop']} counter drops, {totals['rise']} rises, "
      f"{totals['moves']} group moves)")
busiest = max(report["per_worker"].items(), key=lambda kv: kv[1]["tasks"])
print(f"  busiest worker: {busiest[0]} performed {busiest[1]['tasks']} tasks")

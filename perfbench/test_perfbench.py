"""Small-size self-check of the benchmark harness (seconds, not minutes).

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root.  It checks the span arithmetic, that the
tracer wraps and restores grtc, the trace generator, the output checks,
and that run.py refuses to run without a grtc source tree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]
    tracer.names += ["outer", "inner", "inner"]
    tracer.starts += [0.0, 1.0, 4.0]
    tracer.ends += [10.0, 3.0, 7.0]
    tracer.parents += [-1, 0, 0]
    tracer.outcomes += [None, None, "None"]
    s = tracer.summary()
    assert s["outer"]["self_s"] == pytest.approx(5.0)
    assert s["inner"]["self_s"] == pytest.approx(5.0)
    assert s["inner"]["calls"] == 2 and s["inner"]["none"] == 1


def test_wrappers_link_parents_and_record_outcomes():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return None if x == 0 else x

    leaf_t = tracer.wrap("leaf", leaf)
    root_t = tracer.wrap("root", lambda: [leaf_t(1), leaf_t(0)])
    root_t()
    with pytest.raises(ValueError):
        leaf_t(-1)
    assert tracer.names == ["root", "leaf", "leaf", "leaf"]
    assert tracer.parents == [-1, 0, 0, -1]
    assert tracer.outcomes == [None, None, "None", "ValueError"]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))


def test_install_wraps_every_binding_and_uninstall_restores():
    import grtc
    import grtc.cli  # noqa: F401 - its bindings must be wrapped too
    originals = (grtc.operators.find_donor, grtc.generator.next_state)
    tracer = Tracer()
    tracer.install()
    try:
        assert grtc.operators.find_donor is grtc.strategies.find_donor
        assert grtc.operators.find_donor is not originals[0]
        setup = grtc.config.RunSetup(dict(workloads.RUN_CONFIG,
                                          schedule={"interval": 1.0, "count": 20}))
        roster, events = workloads.churn_trace(3, 12, 0.05, 20)
        grtc.generator.run_rotation(setup.initial_state(roster), setup.policy,
                                    setup.strategies, setup.schedule, events)
    finally:
        tracer.uninstall()
    assert (grtc.operators.find_donor, grtc.generator.next_state) == originals
    summary = tracer.summary()
    assert summary["generator.next_state"]["calls"] == 20
    run_span = tracer.names.index("generator.run_rotation")
    first_next = tracer.names.index("generator.next_state")
    assert tracer.parents[first_next] == run_span


def test_churn_trace_is_seeded_and_keeps_the_pool_size(tmp_path):
    from grtc.traces import read_trace_file, write_trace_file
    roster, events = workloads.churn_trace(5, 40, 0.05, 100)
    assert workloads.churn_trace(5, 40, 0.05, 100) == (roster, events)
    assert workloads.churn_trace(6, 40, 0.05, 100)[1] != events
    assert len(events) == 2 * 200
    present = set(roster)
    for e in events:
        (present.discard if e.op == "depart" else present.add)(e.worker)
        assert len(present) in (39, 40)
    write_trace_file(tmp_path / "t.jsonl", roster, events)
    assert read_trace_file(tmp_path / "t.jsonl") == (roster, events)


def test_census_case_count():
    per_state = {}
    for n, ring, _members, _used in workloads.census_states():
        per_state[n] = per_state.get(n, 0) + 1
    cases = sum(count * 2 * (n + len(workloads.CENSUS_KINDS))
                for n, count in per_state.items())
    assert cases == workloads.CENSUS_CASES


def test_run_pass_checks_a_small_run(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(workloads.RUN_WORKLOADS, "tiny",
                        {"workers": 12, "departure_rate": 0.05, "duration": 30,
                         "tasks": 30})
    inputs = workloads.build_inputs("tiny", 1, tmp_path)
    res = workloads.run_pass("tiny", tmp_path, inputs)
    assert res["failed"] == 0, res["notes"]
    assert res["states"] == 31 and set(res["digests"]) == {"record.json", "report.json"}
    again = workloads.run_pass("tiny", tmp_path, inputs)
    assert again["digests"] == res["digests"]


def test_report_mismatch_names_the_disagreeing_field():
    record = {"change_logs": [[{"op": "donated"}]],
              "states": [{"ring": ["g1", "g2"]}, {"ring": ["g1", "g2"]}],
              "stalls": []}
    counts = workloads.change_counts(record["change_logs"])
    report = {"counts": counts, "transitions": 1, "group_counts": [2, 2],
              "stall_time": 0}
    assert workloads.report_mismatch(record, report, counts) == ""
    assert workloads.report_mismatch(record, dict(report, transitions=2),
                                     counts) == "transitions"


def test_digest_checks_count_mismatches():
    passes = [{"digests": {"a": "1"}}, {"digests": {"a": "2"}}]
    assert run.check_digests(passes, None)[:2] == (2, 1)
    assert run.check_digests(passes, {"a": "2"})[:2] == (2, 1)
    assert run.check_digests(passes[:1], {"a": "1"})[:2] == (1, 0)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "census-tiny",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    passes = [{"setup_s": 0.1, "peak_rss_mb": 30.0, "work": 10, "work_s": 0.5}]
    assert set(run.end_to_end_metrics(passes)) == {
        m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    traced = run.layer_metrics(*fake_passes())
    assert set(traced) | {"error_rate"} == layer_names


def fake_passes():
    plain = {"times": {"wall_s": 1.0}, "failed": 0, "attempted": 1}
    spans = {"times": {"wall_s": 1.1}, "layers": {}, "counters": {}}
    return plain, spans, None, None

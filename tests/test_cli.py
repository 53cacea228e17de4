import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from grtc import (GrtcError, StallError, TraceConfig, generate_trace, run_rotation,
                  summarize_run)
from grtc.cli import main
from grtc.config import RunSetup

RUN_CONFIG = {
    "d": 2,
    "max_multiplier": 2,
    "choose": "balanced",
    "find": {"order": "pred-first", "horizon": "unlimited"},
    "weights": {"alpha": 1.0, "beta": 0.25, "gamma": 0.5},
    "seed": 42,
    "schedule": {"interval": 1.0, "count": 25},
    "initial": {"workers": 9},
}

TRACE_SPEC = {"duration": 25, "arrival_rate": 0.4, "departure_rate": 0.05,
              "initial_workers": 6}

SWEEP_SPEC = {
    "choose": ["balanced", "concentrated"],
    "find_order": ["pred-first"],
    "horizon": ["unlimited"],
    "d": [2],
    "max_multiplier": [2],
    "seeds": [1, 2, 3],
    "schedule": {"interval": 1.0, "count": 20},
    "weights": {"alpha": 1.0, "beta": 0.25, "gamma": 0.5},
    "trace": {"duration": 20, "arrival_rate": 0.5, "departure_rate": 0.05,
              "initial_workers": 8},
}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


class TestRun:
    def test_bundled_example_config(self, tmp_path):
        from pathlib import Path
        bundled = Path(__file__).parent.parent / "demos" / "config.example.json"
        out = tmp_path / "out"
        assert main(["run", str(bundled), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert 0 < report["burden"] <= 0.5
        assert main(["validate", str(out / "record.json")]) == 0

    def test_run_writes_record_and_report(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", config, "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert record["v"] == 1
        assert len(record["states"]) == 26
        assert 0 < report["burden"] <= 0.5

    def test_run_is_byte_deterministic(self, tmp_path):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        pairs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", config, "--out", str(out)]) == 0
            pairs.append(((out / "record.json").read_bytes(),
                          (out / "report.json").read_bytes()))
        assert pairs[0] == pairs[1]

    def test_run_with_trace_config(self, tmp_path):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        trace_config = write_json(tmp_path / "trace.json", TRACE_SPEC)
        out = tmp_path / "out"
        assert main(["run", config, "--trace-config", trace_config,
                     "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert len(record["states"][0]["members"]) >= 2

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "bad.json:1" in err

    def test_bad_strategy_exits_1(self, tmp_path, capsys):
        config = dict(RUN_CONFIG, choose="psychic")
        path = write_json(tmp_path / "config.json", config)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert "psychic" in capsys.readouterr().err

    def test_bad_strategy_message(self, tmp_path, capsys):
        for key, value, text in (
                ("choose", "psychic", "unknown choose strategy 'psychic'; expected one of ("),
                ("find", {"order": "sideways"},
                 "unknown find order 'sideways'; expected one of (")):
            path = write_json(tmp_path / "config.json", dict(RUN_CONFIG, **{key: value}))
            assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
            assert text in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, capsys):
        path = write_json(tmp_path / "config.json", [1, 2])
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert "error: config must be an object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["find", "weights", "initial"])
    def test_section_not_an_object(self, tmp_path, capsys, key):
        path = write_json(tmp_path / "config.json", dict(RUN_CONFIG, **{key: "pred-first"}))
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert f"error: config.{key} must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, text", [
        ({"arrival_rate": 0.4, "departure_rate": 0.05, "initial_workers": 6},
         "error: trace.duration is missing"),
        ({"duration": "long", "arrival_rate": 0.4, "departure_rate": 0.05,
          "initial_workers": 6}, "error: trace.duration must be a number"),
        ([25, 0.4], "error: trace must be an object"),
        *[({**TRACE_SPEC, "seed": seed}, f"error: trace.seed must be an integer, got {got}")
          for seed, got in (([1, 2], "[1, 2]"), ("7", "'7'"), (True, "True"), (None, "None"))],
    ])
    def test_bad_trace_config(self, tmp_path, capsys, spec, text):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        trace_config = write_json(tmp_path / "trace.json", spec)
        assert main(["run", config, "--trace-config", trace_config,
                     "--out", str(tmp_path / "out")]) == 1
        assert text in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, text", [
        ("initial_workers", 6.7, "trace.initial_workers must be an integer, got 6.7"),
        ("arrival_rate", True, "trace.arrival_rate must be a number, got True"),
        ("duration", "5", "trace.duration must be a number, got '5'"),
        ("departure_rate", None, "trace.departure_rate must be a number, got None"),
        # a trace without end: generation would never stop
        ("duration", float("inf"), "duration and rates must be finite"),
        ("arrival_rate", float("inf"), "duration and rates must be finite"),
    ], ids=["workers-fraction", "rate-bool", "duration-string", "rate-null",
            "duration-infinite", "rate-infinite"])
    def test_trace_number_is_checked_not_coerced(self, tmp_path, capsys, key, value, text):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        spec = dict(TRACE_SPEC, **{key: value})
        trace_config = write_json(tmp_path / "trace.json", spec)
        out = tmp_path / "out"
        assert main(["run", config, "--trace-config", trace_config,
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert f"error: {text}" in capsys.readouterr().err

    @pytest.mark.parametrize("groups, where", [
        ([["g1"], ["g2", ["w2"]]], "groups[0] must be a [group, [workers]] pair"),
        ("g1", "groups must be an array"),
        # a string of workers would otherwise be split into one-letter workers
        ([["g1", ["w1"]], ["g2", "w2"]], "groups[1] must be a [group, [workers]] pair"),
    ], ids=["short-pair", "not-an-array", "workers-as-string"])
    def test_malformed_initial_groups(self, tmp_path, capsys, groups, where):
        config = dict(RUN_CONFIG, initial={"groups": groups, "current": "g1"})
        path = write_json(tmp_path / "config.json", config)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 1
        assert not out.exists()
        assert f"error: config.initial.{where}" in capsys.readouterr().err

    def test_seed_variable_changes_nothing(self, tmp_path, monkeypatch):
        # GRTC_SEED once overrode every config seed, sweep seeds included
        config = write_json(tmp_path / "config.json", dict(RUN_CONFIG, choose="random"))
        spec = write_json(tmp_path / "spec.json", dict(SWEEP_SPEC, choose=["random"]))
        outputs = []
        for env in (None, "5"):
            if env is not None:
                monkeypatch.setenv("GRTC_SEED", env)
            run_out, sweep_out = tmp_path / f"run-{env}", tmp_path / f"sweep-{env}"
            assert main(["run", config, "--out", str(run_out)]) == 0
            assert main(["sweep", spec, "--out", str(sweep_out)]) == 0
            outputs.append(((run_out / "record.json").read_bytes(),
                            (sweep_out / "sweep.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bug_is_not_reported_as_input_error(self, tmp_path, monkeypatch):
        def broken(record, weights):
            raise KeyError("w1")
        monkeypatch.setattr("grtc.cli.summarize_run", broken)
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        with pytest.raises(KeyError):
            main(["run", config, "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("change, text", [
        ({"d": True}, "config.d must be an integer, got True"),
        ({"d": 2.7}, "config.d must be an integer, got 2.7"),
        ({"d": "3"}, "config.d must be an integer, got '3'"),
        ({"max_multiplier": "3"}, "config.max_multiplier must be an integer, got '3'"),
        ({"schedule": {"interval": 1.0, "count": 2.9}},
         "config.schedule.count must be an integer, got 2.9"),
        ({"schedule": {"interval": True, "count": 3}},
         "config.schedule.interval must be a number, got True"),
        ({"schedule": {"times": [1.0, "2"]}},
         "config.schedule.times[1] must be a number, got '2'"),
        ({"schedule": {"times": "12"}}, "config.schedule.times must be an array"),
        ({"find": {"horizon": True}},
         "config.find.horizon must be a positive integer or 'unlimited', got True"),
        ({"weights": {"alpha": "1"}}, "config.weights.alpha must be a number, got '1'"),
        ({"weights": {"beta": float("inf")}}, "stress weights must be finite and >= 0"),
        ({"seed": [1]}, "config.seed must be an integer, got [1]"),
        ({"seed": {}}, "config.seed must be an integer, got {}"),
        ({"seed": None}, "config.seed must be an integer, got None"),
        ({"seed": True}, "config.seed must be an integer, got True"),
    ], ids=["d-bool", "d-fraction", "d-string", "multiplier-string", "count-fraction",
            "interval-bool", "time-string", "times-string", "horizon-bool",
            "weight-string", "weight-infinite", "seed-array", "seed-object", "seed-null",
            "seed-bool"])
    def test_config_number_is_checked_not_coerced(self, tmp_path, capsys, change, text):
        path = write_json(tmp_path / "config.json", dict(RUN_CONFIG, **change))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 1
        assert not out.exists()
        assert f"error: {text}" in capsys.readouterr().err

    @pytest.mark.parametrize("change, trace_change, path", [
        ({"weights": {"alpha": 10**400}}, {}, "config.weights.alpha"),
        ({"weights": {"gamma": -10**400}}, {}, "config.weights.gamma"),
        ({"schedule": {"interval": 10**400, "count": 3}}, {}, "config.schedule.interval"),
        ({"schedule": {"interval": 1.0, "count": 3, "start": 10**400}}, {},
         "config.schedule.start"),
        ({"schedule": {"times": [1.0, 10**400]}}, {}, "config.schedule.times[1]"),
        ({}, {"duration": 10**400}, "trace.duration"),
        ({}, {"arrival_rate": 10**400}, "trace.arrival_rate"),
        ({}, {"departure_rate": 10**400}, "trace.departure_rate"),
    ], ids=["weight", "weight-negative", "interval", "start", "time", "trace-duration",
            "arrival-rate", "departure-rate"])
    def test_integer_beyond_the_float_range(self, tmp_path, capsys, change, trace_change, path):
        # json.dumps writes each 10**400 out as a 401-digit integer
        config = write_json(tmp_path / "config.json", dict(RUN_CONFIG, **change))
        spec = dict(TRACE_SPEC, **trace_change)
        trace_config = write_json(tmp_path / "trace.json", spec)
        out = tmp_path / "out"
        assert main(["run", config, "--trace-config", trace_config, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: {path} must be a finite number, got an integer of 401 digits\n")

    @pytest.mark.parametrize("schedule, text", [
        ({"times": [1.0, float("nan"), 3.0]}, "config.schedule.times[1] must be finite, got nan"),
        ({"times": [1.0, float("inf")]}, "config.schedule.times[1] must be finite, got inf"),
        ({"interval": float("nan"), "count": 5}, "config.schedule.interval must be finite"),
        ({"interval": 1.0, "count": 5, "start": float("nan")},
         "config.schedule.start must be finite"),
    ], ids=["time-nan", "time-infinite", "interval-nan", "start-nan"])
    def test_schedule_numbers_must_be_finite(self, tmp_path, capsys, schedule, text):
        # json.dumps writes NaN and Infinity, which the config reader accepts
        path = write_json(tmp_path / "config.json", dict(RUN_CONFIG, schedule=schedule))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 1
        assert not out.exists()
        assert f"error: {text}" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule, text", [
        ({"interval": 1.0}, "config.schedule.count is missing"),
        ({"count": 5}, "config.schedule.interval is missing"),
        ({"interval": 1.0, "count": 0}, "schedule count must be >= 1"),
        ({"interval": -1.0, "count": 5}, "schedule interval must be positive"),
        ({"interval": 1e308, "count": 3}, "task times must be finite"),
        ({"times": []}, "schedule needs at least one task time"),
        ({"times": [2.0, 1.0]}, "task times must be strictly increasing"),
        ({"times": [0.0, 1.0]}, "task times must be positive"),
    ], ids=["no-count", "no-interval", "count-zero", "interval-negative", "overflow",
            "no-times", "decreasing", "zero-time"])
    def test_bad_schedule(self, tmp_path, capsys, schedule, text):
        path = write_json(tmp_path / "config.json", dict(RUN_CONFIG, schedule=schedule))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {text}\n"

    @pytest.mark.parametrize("change, text", [
        ({"choos": "random", "dd": 5}, "config.choos; expected one of: d, max_multiplier, "
         "choose, find, weights, seed, schedule, initial"),
        ({"find": {"order": "pred-first", "horizn": 3}},
         "config.find.horizn; expected one of: order, horizon"),
        ({"weights": {"alpha": 1.0, "delta": 2}},
         "config.weights.delta; expected one of: alpha, beta, gamma"),
        ({"schedule": {"interval": 1.0, "count": 3, "cuont": 9}},
         "config.schedule.cuont; expected one of: interval, count, start"),
        ({"schedule": {"times": [1.0], "count": 3}},
         "config.schedule.count; expected one of: times"),
        ({"initial": {"workers": 4, "current": "g1"}},
         "config.initial.current; expected one of: workers"),
        ({"initial": {"groups": [["g1", ["w1", "w2"]], ["g2", ["w3", "w4"]]],
                      "current": "g1", "workers": 4}},
         "config.initial.workers; expected one of: groups, current"),
    ], ids=["top-level", "find", "weights", "schedule", "schedule-times", "initial",
            "initial-groups"])
    def test_unknown_config_key(self, tmp_path, capsys, change, text):
        # a misspelt key once ran the default and was echoed into record.json
        path = write_json(tmp_path / "config.json", dict(RUN_CONFIG, **change))
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: unknown key {text}\n"

    def test_unknown_trace_config_key(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        trace_config = write_json(tmp_path / "trace.json", dict(TRACE_SPEC, durattion=5))
        out = tmp_path / "out"
        assert main(["run", config, "--trace-config", trace_config, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: unknown key trace.durattion; expected one of: duration, arrival_rate, "
            "departure_rate, initial_workers, seed\n")

    def test_report_is_the_summary_document(self, tmp_path):
        from grtc import run_rotation, summarize_run
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", config, "--out", str(out)]) == 0
        setup = RunSetup(RUN_CONFIG)
        record = run_rotation(setup.initial_state(), setup.policy, setup.strategies,
                              setup.schedule, [], config=setup.echo())
        report = summarize_run(record, setup.weights)
        assert type(report) is dict
        assert (out / "report.json").read_text() == \
            json.dumps(report, indent=1, sort_keys=True) + "\n"

    @pytest.mark.parametrize("t, text", [
        ("-1.0", "event time -1.0"), ("0.0", "event time 0.0"), ("NaN", "event time nan"),
    ], ids=["negative", "zero", "nan"])
    def test_trace_event_outside_every_window(self, tmp_path, capsys, t, text):
        # the first task window is (0, t_1]: such an arrival would vanish
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"format": "grtc-trace", "v": 1, "initial": '
                         + json.dumps([f"w{k}" for k in range(1, 9)]) + "}\n"
                         f'{{"t": {t}, "op": "arrive", "worker": "x1"}}\n'
                         '{"t": 0.5, "op": "arrive", "worker": "x2"}\n')
        out = tmp_path / "out"
        assert main(["run", config, "--trace", str(trace), "--out", str(out)]) == 1
        assert not out.exists()
        assert f"error: line 2: {text} is not a finite number > 0" in capsys.readouterr().err


HUGE = "1" * 5001  # past Python's 4,300-digit integer conversion limit
TRACE_HEADER = '{"format": "grtc-trace", "v": 1, "initial": ["w1", "w2", "w3"]}\n'


@pytest.mark.parametrize("command, text, where", [
    ("run", '{"seed": ' + HUGE + "}", "{path}: Exceeds the limit"),
    ("trace-config", '{"duration": ' + HUGE + "}", "{path}: Exceeds the limit"),
    ("sweep", '{"seeds": [' + HUGE + "]}", "{path}: Exceeds the limit"),
    ("trace", '{"format": "grtc-trace", "v": ' + HUGE + "}\n",
     "line 1: bad header: Exceeds the limit"),
    ("trace", TRACE_HEADER + '{"t": ' + HUGE + ', "op": "arrive", "worker": "a"}\n',
     "line 2: Exceeds the limit"),
    ("validate", '{"v": ' + HUGE + "}", "{path}: Exceeds the limit"),
    ("run", b'{"choose": "\xff"}', "{path}: 'utf-8' codec can't decode"),
    ("trace", TRACE_HEADER.encode() + b"\xff\n", "{path}: not UTF-8 text"),
    ("validate", b"\xff", "{path}: 'utf-8' codec can't decode"),
], ids=["config", "trace-config", "sweep-spec", "trace-header", "trace-event", "record",
        "config-not-utf8", "trace-not-utf8", "record-not-utf8"])
def test_unreadable_input_names_its_file(tmp_path, capsys, command, text, where):
    path = tmp_path / "input"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    config = write_json(tmp_path / "config.json", RUN_CONFIG)
    out = str(tmp_path / "out")
    argv = {"run": ["run", str(path), "--out", out],
            "trace-config": ["run", config, "--trace-config", str(path), "--out", out],
            "trace": ["run", config, "--trace", str(path), "--out", out],
            "sweep": ["sweep", str(path), "--out", out],
            "validate": ["validate", str(path)]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + where.format(path=path))
    assert err.count("\n") == 1


class TestValidate:
    def test_fresh_record_clean(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        out = tmp_path / "out"
        main(["run", config, "--out", str(out)])
        assert main(["validate", str(out / "record.json")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_degraded_record_is_clean_with_warnings(self, tmp_path, capsys):
        # three workers, d=2: the pool is below 2d, so the group of one is legal
        config = write_json(tmp_path / "config.json",
                            dict(RUN_CONFIG, schedule={"interval": 1.0, "count": 2},
                                 initial={"workers": 3}))
        out = tmp_path / "out"
        assert main(["run", config, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out / "record.json")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            *(f"(warning) step {k}: BelowFloorDegraded: group g2 has 1 < d=2 members"
              for k in range(3)),
            f"{out / 'record.json'}: clean (3 states, 3 warnings)"]

    def test_corrupted_record_reports_step(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        out = tmp_path / "out"
        main(["run", config, "--out", str(out)])
        doc = json.loads((out / "record.json").read_text())
        snap = doc["states"][4]
        g = snap["ring"][0]
        other = snap["ring"][1]
        snap["members"][other] = snap["members"][other] + [snap["members"][g][0]]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        text = capsys.readouterr().out
        assert "NotPartition" in text and "step 4" in text

    def test_malformed_record_names_the_path(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        out = tmp_path / "out"
        main(["run", config, "--out", str(out)])
        doc = json.loads((out / "record.json").read_text())
        doc["config"]["d"] = "2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert "error: config.d: expected an integer" in capsys.readouterr().err


    def test_malformed_change_log_entry(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        out = tmp_path / "out"
        main(["run", config, "--out", str(out)])
        doc = json.loads((out / "record.json").read_text())
        doc["change_logs"][0] = ["x"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert "error: change_logs[0][0]: expected an object" in capsys.readouterr().err

    def test_entry_missing_a_key(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        out = tmp_path / "out"
        main(["run", config, "--out", str(out)])
        doc = json.loads((out / "record.json").read_text())
        doc["change_logs"][3] = [{"op": "donated", "worker": "w1", "to": "g1"}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", str(bad)]) == 1
        text = capsys.readouterr().out
        assert "step 4: ReplayMismatch" in text and "'from'" in text

    def test_entry_field_of_wrong_type(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        out = tmp_path / "out"
        main(["run", config, "--out", str(out)])
        doc = json.loads((out / "record.json").read_text())
        doc["change_logs"][3] = [{"op": "inserted", "worker": "zz", "group": ["g1"]}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert ("step 4: ReplayMismatch: entry 0 (inserted): 'group' is not a string"
                in captured.out)
        assert captured.err == ""

    def test_current_outside_the_ring(self, tmp_path, capsys):
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        out = tmp_path / "out"
        main(["run", config, "--out", str(out)])
        doc = json.loads((out / "record.json").read_text())
        doc["states"][0]["current"] = "g99"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "step 0: CurrentMissing: current 'g99' not in ring" in captured.out
        assert "step 1: ReplayMismatch: group g99 is not in the ring" in captured.out
        assert captured.err == ""


class TestGenTrace:
    def test_gen_then_run(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["gen-trace", "--seed", "5", "--duration", "30",
                     "--arrival-rate", "0.5", "--departure-rate", "0.05",
                     "--initial", "8", "--out", str(trace)]) == 0
        header = json.loads(trace.read_text().splitlines()[0])
        assert header["format"] == "grtc-trace"
        config = write_json(tmp_path / "config.json", RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", config, "--trace", str(trace),
                     "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        first = record["states"][0]
        tokens = {t for ms in first["members"].values() for t in ms}
        assert tokens == set(header["initial"])

    @pytest.mark.parametrize("flag, value, text", [
        ("--initial", "1", "need at least two initial workers"),
        ("--duration", "-1", "duration must be positive"),
        ("--arrival-rate", "nan", "duration and rates must be finite"),
    ], ids=["one-worker", "negative-duration", "nan-rate"])
    def test_bad_settings_exit_1(self, tmp_path, capsys, flag, value, text):
        trace = tmp_path / "trace.jsonl"
        assert main(["gen-trace", flag, value, "--out", str(trace)]) == 1
        assert not trace.exists()
        assert capsys.readouterr().err == f"error: {text}\n"


class TestSweep:
    def test_row_count_and_determinism(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SWEEP_SPEC)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", spec, "--out", str(out1)]) == 0
        assert main(["sweep", spec, "--out", str(out2)]) == 0
        csv1 = (out1 / "sweep.csv").read_bytes()
        assert csv1 == (out2 / "sweep.csv").read_bytes()
        lines = csv1.decode().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + choose x seeds
        assert lines[0].startswith("run_id,choose,find_order,horizon,d,")
        assert len(list((out1 / "reports").glob("*.json"))) == 6

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_an_input_error(self, tmp_path, capsys, monkeypatch, jobs):
        import grtc.sweep
        monkeypatch.setattr(grtc.sweep, "run_combo", lambda key: pytest.fail("a run started"))
        spec = write_json(tmp_path / "spec.json", SWEEP_SPEC)
        out = tmp_path / "out"
        assert main(["sweep", spec, "--out", str(out), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_parallel_output_identical(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SWEEP_SPEC)
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(["sweep", spec, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["sweep", spec, "--out", str(out2), "--jobs", "3"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_parallel_reports_identical(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SWEEP_SPEC)
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(["sweep", spec, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["sweep", spec, "--out", str(out2), "--jobs", "2"]) == 0
        reports = sorted(p.name for p in (out1 / "reports").iterdir())
        assert len(reports) == 6
        assert sorted(p.name for p in (out2 / "reports").iterdir()) == reports
        for name in reports:
            assert (out1 / "reports" / name).read_bytes() == \
                (out2 / "reports" / name).read_bytes()

    def test_error_row_keeps_sweep_alive(self, tmp_path, capsys):
        spec = dict(SWEEP_SPEC, seeds=[1],
                    trace=dict(SWEEP_SPEC["trace"], initial_workers=1))
        path = write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "out"
        assert main(["sweep", path, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("workers") or "error" in lines[0]
                   for line in lines[1:])

    def test_seed_axis_is_checked_before_any_run(self, tmp_path, capsys, monkeypatch):
        def never(key):
            raise AssertionError("a run started")
        monkeypatch.setattr("grtc.sweep._simulate", never)
        path = write_json(tmp_path / "spec.json", dict(SWEEP_SPEC, seeds=[1, "2"]))
        out = tmp_path / "out"
        assert main(["sweep", path, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == \
            "error: sweep.seeds[1] must be an integer, got '2'\n"

    @pytest.mark.parametrize("change, text", [
        ({"chose": ["random"]}, "unknown key sweep.chose; expected one of: choose, "
         "find_order, horizon, d, max_multiplier, seeds, schedule, weights, trace"),
        ({"trace": dict(SWEEP_SPEC["trace"], durration=5)},
         "unknown key sweep.trace.durration; expected one of: duration, arrival_rate, "
         "departure_rate, initial_workers"),
        ({"trace": dict(SWEEP_SPEC["trace"], seed=99)},
         "sweep.trace.seed is not allowed: the seeds axis sets each run's trace seed"),
        ({"trace": 5}, "sweep.trace must be an object, got int"),
    ], ids=["axis", "trace-key", "trace-seed", "trace-not-object"])
    def test_unknown_spec_key_is_rejected_before_any_run(self, tmp_path, capsys,
                                                         monkeypatch, change, text):
        def never(key):
            raise AssertionError("a run started")
        monkeypatch.setattr("grtc.sweep._simulate", never)
        path = write_json(tmp_path / "spec.json", dict(SWEEP_SPEC, **change))
        out = tmp_path / "out"
        assert main(["sweep", path, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {text}\n"

    def test_row_metrics_are_the_report_figures(self, tmp_path):
        import csv
        from grtc.sweep import config_columns, expand, report_columns
        out = tmp_path / "out"
        assert main(["sweep", write_json(tmp_path / "spec.json", SWEEP_SPEC),
                     "--out", str(out)]) == 0
        with open(out / "sweep.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6
        for row, config in zip(rows, expand(SWEEP_SPEC)):
            report = json.loads((out / "reports" / f"{row['run_id']}.json").read_text())
            expected = {**config_columns(row["run_id"], config), **report_columns(report)}
            assert row == {k: str(v) for k, v in expected.items()}
            assert row["total_drop"] == str(report["totals"]["drop"])

    # two horizons and a repeated seed: 8 combinations, 2 distinct simulations
    SHARED = dict(SWEEP_SPEC, horizon=[1, "unlimited"], seeds=[1, 1])

    def count_runs(self, monkeypatch, fail=None):
        """Count ``run_combo``'s calls by key; a key whose choose is
        ``fail`` raises a ``StallError``."""
        import grtc.sweep
        calls = []
        real = grtc.sweep.run_combo

        def counted(key):
            calls.append(key)
            if key.choose == fail:
                raise StallError("no legal follow-up state")
            return real(key)
        monkeypatch.setattr(grtc.sweep, "run_combo", counted)
        return calls

    def test_each_distinct_simulation_runs_once(self, tmp_path, monkeypatch):
        from grtc.sweep import execute
        calls = self.count_runs(monkeypatch)
        execute(self.SHARED, tmp_path / "out", jobs=1)
        assert [key.choose for key in calls] == SWEEP_SPEC["choose"]
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 8
        assert len(list((tmp_path / "out" / "reports").iterdir())) == 8

    def count_traces(self, monkeypatch):
        """Count ``generate_trace``'s calls through the sweep's binding."""
        import grtc.sweep
        calls = []
        real = grtc.sweep.generate_trace

        def counted(config):
            calls.append(config)
            return real(config)
        monkeypatch.setattr(grtc.sweep, "generate_trace", counted)
        return calls

    def test_runs_sharing_a_trace_generate_it_once(self, tmp_path, monkeypatch):
        import grtc.sweep
        calls = self.count_traces(monkeypatch)
        spec = dict(SWEEP_SPEC, seeds=[1, 2],
                    choose=["balanced", "concentrated", "farthest", "hybrid", "random"])
        grtc.sweep.execute(spec, tmp_path / "a", jobs=1)
        assert [config.seed for config in calls] == [1, 2]
        assert grtc.sweep._trace == {}
        grtc.sweep.execute(spec, tmp_path / "b", jobs=1)
        assert [config.seed for config in calls] == [1, 2, 1, 2]
        assert grtc.sweep._trace == {}
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
            (tmp_path / "b" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_runs_match_one_run_per_combination(self, tmp_path, jobs):
        import csv
        from grtc.records import report_text
        from grtc.sweep import CSV_COLUMNS, config_columns, execute, expand, report_columns
        out = tmp_path / "out"
        execute(self.SHARED, out, jobs=jobs)
        # what a sweep wrote when every combination ran its own simulation
        rows = []
        for index, config in enumerate(expand(self.SHARED)):
            setup = RunSetup({k: v for k, v in config.items() if k != "trace"})
            roster, events = generate_trace(TraceConfig.from_spec(config["trace"], setup.seed))
            record = run_rotation(setup.initial_state(roster), setup.policy, setup.strategies,
                                  setup.schedule, events)
            report = summarize_run(record, setup.weights)
            run_id = f"run-{index:04d}"
            rows.append({**config_columns(run_id, config), **report_columns(report)})
            assert (out / "reports" / f"{run_id}.json").read_text() == report_text(report)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", encoding="utf-8", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert (out / "sweep.csv").read_bytes() == expected.read_bytes()

    def test_failing_shared_run_is_an_error_row_per_combination(self, tmp_path, monkeypatch):
        from grtc.sweep import execute
        calls = self.count_runs(monkeypatch, fail="concentrated")
        out = tmp_path / "out"
        execute(self.SHARED, out, jobs=1)
        assert len(calls) == 2
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        failed = [f"run-{k:04d},concentrated,pred-first,{horizon},2,2,1,,,,,,,,,,,"
                  "no legal follow-up state"
                  for k, horizon in zip(range(4, 8), [1, 1, "unlimited", "unlimited"])]
        assert lines[4:] == failed
        assert all(line.startswith(f"run-{k:04d},balanced,") and line.endswith(",")
                   for k, line in enumerate(lines[:4]))
        assert sorted(p.name for p in (out / "reports").iterdir()) == \
            [f"run-{k:04d}.json" for k in range(4)]

    def test_bug_fails_the_sweep(self, tmp_path, monkeypatch):
        import grtc.sweep

        def broken(record, weights):
            raise KeyError("w1")
        monkeypatch.setattr(grtc.sweep, "summarize_run", broken)
        with pytest.raises(KeyError):
            grtc.sweep.execute(SWEEP_SPEC, tmp_path / "out", jobs=1)
        assert grtc.sweep._trace == {}  # the aborted sweep holds no trace

    @pytest.mark.parametrize("spec, kind", [([1, 2], "list"), ("spec", "str")],
                             ids=["array", "string"])
    def test_spec_not_an_object(self, tmp_path, capsys, spec, kind):
        path = write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "out"
        assert main(["sweep", path, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: sweep spec must be an object, got {kind}\n"

    def test_trace_key_error_row(self, tmp_path):
        trace = {k: v for k, v in SWEEP_SPEC["trace"].items() if k != "duration"}
        path = write_json(tmp_path / "spec.json", dict(SWEEP_SPEC, seeds=[1], trace=trace))
        out = tmp_path / "out"
        assert main(["sweep", path, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1:] == [
            f"run-{k:04d},{choose},pred-first,unlimited,2,2,1,,,,,,,,,,,"
            "trace.duration is missing"
            for k, choose in enumerate(SWEEP_SPEC["choose"])]


# -- malformed inputs: only a GrtcError may escape -----------------------

# small integers only, so no roster or schedule is huge
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=6)
    | st.sampled_from(["random", "hybrid", "succ-first", "unlimited", "g1", "w1"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["g1", "w1", "count", "times"]), inner, max_size=3),
    max_leaves=8)
# a deleted key, numbers near the bounds and lists of them come up
# often; any JSON value now and then
MISSING = object()
NUMBER = st.integers(-2, 4) | st.floats()
VALUE = st.just(MISSING) | NUMBER | st.lists(NUMBER, max_size=4) | JSON
CONFIG_KEYS = ["d", "max_multiplier", "choose", "seed", "find.order", "find.horizon",
               "weights.alpha", "weights.beta", "weights.gamma", "schedule.interval",
               "schedule.count", "schedule.start", "schedule.times", "initial.workers",
               "initial.groups", "initial.current"]
GROUPS_CONFIG = dict(RUN_CONFIG, initial={"groups": [["g1", ["w1", "w2"]], ["g2", ["w3"]]],
                                          "current": "g1"})


def edited(base, edits):
    """``base`` with each dotted key set to its value, or deleted for ``MISSING``."""
    doc = copy.deepcopy(base)
    for path, value in edits:
        *parents, key = path.split(".")
        target = doc
        for p in parents:
            target = target.setdefault(p, {})
        if value is MISSING:
            target.pop(key, None)
        else:
            target[key] = value
    return doc


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([RUN_CONFIG, GROUPS_CONFIG]),
       st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), VALUE), min_size=1, max_size=3))
def test_malformed_config_raises_only_grtc_errors(base, edits):
    try:
        RunSetup(edited(base, edits)).initial_state()
    except GrtcError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(TRACE_SPEC)), VALUE), min_size=1, max_size=3)
       .map(lambda edits: edited(TRACE_SPEC, edits)) | JSON)
def test_malformed_trace_spec_raises_only_grtc_errors(spec):
    try:
        TraceConfig.from_spec(spec, 0)
    except GrtcError:
        pass

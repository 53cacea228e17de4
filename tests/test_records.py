import copy
import json
import re
from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from grtc import (
    OperatorPolicy,
    RotationState,
    StrategySet,
    TaskSchedule,
    TraceConfig,
    build_initial_state,
    dump_record,
    generate_trace,
    load_record,
    record_to_dict,
    run_rotation,
    validate_record,
)
from grtc.cli import main
from grtc.errors import CorruptRecord, GrtcError
from grtc.generator import RunRecord
from grtc.recordcheck import ReplayFailure, check_snapshot, replay_entries
from grtc.state import WorkerId, check_state

from conftest import json_values, runs, scripted_run, tokens


@pytest.fixture(scope="module")
def record():
    policy = OperatorPolicy(d=2)
    strategies = StrategySet.seeded("balanced", "pred-first", 17)
    config = TraceConfig(seed=17, duration=40, arrival_rate=0.8,
                         departure_rate=0.08, initial_workers=8)
    roster, events = generate_trace(config)
    initial = build_initial_state(roster, policy)
    return run_rotation(initial, policy, strategies,
                        TaskSchedule.periodic(1.0, 40), events,
                        config={"d": 2, "seed": 17})


@pytest.fixture(scope="module")
def record_doc(record):
    doc = record_to_dict(record)
    # make sure the fixture actually exercises restructuring
    ops = {e["op"] for log in doc["change_logs"] for e in log}
    assert {"inserted", "removed"} <= ops
    return doc


class TestValidateRecord:
    def test_fresh_record_is_clean(self, record_doc):
        result = validate_record(record_doc)
        assert result.ok, result.violations

    def test_corrupted_ring_order(self, record_doc):
        doc = copy.deepcopy(record_doc)
        snap = doc["states"][3]
        snap["ring"] = snap["ring"][::-1]
        result = validate_record(doc)
        codes = {f.code for f in result.violations}
        assert "FollowsWrongSuccessor" in codes or "ReplayMismatch" in codes

    def test_duplicated_worker(self, record_doc):
        doc = copy.deepcopy(record_doc)
        snap = doc["states"][2]
        g1, g2 = snap["ring"][0], snap["ring"][1]
        snap["members"][g2] = snap["members"][g2] + [snap["members"][g1][0]]
        result = validate_record(doc)
        assert any(f.code == "NotPartition" for f in result.violations)
        assert any(f.step == 2 for f in result.violations)

    def test_overlap_injected(self, record_doc):
        doc = copy.deepcopy(record_doc)
        prev, nxt = doc["states"][0], doc["states"][1]
        moved = prev["members"][prev["current"]][0]
        target = nxt["current"]
        for g in nxt["ring"]:
            if moved in nxt["members"][g]:
                nxt["members"][g] = [t for t in nxt["members"][g] if t != moved]
        nxt["members"][target] = nxt["members"][target] + [moved]
        result = validate_record(doc)
        assert any(f.code == "FollowsOverlap" for f in result.violations)

    def test_tampered_membership_fails_replay(self, record_doc):
        doc = copy.deepcopy(record_doc)
        snap = doc["states"][5]
        g = snap["ring"][0]
        snap["members"][g] = list(reversed(snap["members"][g]))
        result = validate_record(doc)
        assert not result.ok

    def test_extra_snapshot_key_is_not_a_finding(self, record_doc):
        # replay rebuilds step, current, ring and members; other keys are additive
        doc = copy.deepcopy(record_doc)
        doc["states"][1]["note"] = "extra"
        result = validate_record(doc)
        assert result.ok, result.violations

    def test_replay_mismatch_names_the_key(self, record_doc):
        # the last state, so only the replay into it can mismatch
        doc = copy.deepcopy(record_doc)
        snap = doc["states"][-1]
        snap["note"] = "extra"
        g = next(g for g in snap["ring"] if len(snap["members"][g]) > 1)
        snap["members"][g] = list(reversed(snap["members"][g]))
        result = validate_record(doc)
        [finding] = [f for f in result.violations if f.code == "ReplayMismatch"]
        assert finding.step == len(doc["states"]) - 1
        assert finding.detail.startswith("members: replay ")
        assert "note" not in finding.detail

    def test_entry_missing_a_key_is_a_finding(self, record_doc):
        doc = copy.deepcopy(record_doc)
        i, entry = next((i, e) for i, log in enumerate(doc["change_logs"])
                        for e in log if e["op"] == "inserted")
        del entry["group"]
        result = validate_record(doc)
        [finding] = [f for f in result.violations if f.code == "ReplayMismatch"]
        assert finding.step == i + 1
        assert "'group'" in finding.detail

    @pytest.mark.parametrize("entry, text", [
        ({"op": "inserted", "worker": "zz", "group": ["g1"]}, "'group' is not a string"),
        ({"op": "donated", "worker": 7, "from": "g1", "to": "g2"},
         "'worker' is not a string"),
        ({"op": "split", "group": "g1", "new_group": "g9", "moved": "w1"},
         "'moved' is not an array of strings"),
        ({"op": "joined", "survivor": "g1", "absorbed": "g2", "moved": [["w1"]]},
         "'moved' is not an array of strings"),
    ], ids=["group-array", "worker-number", "moved-string", "moved-nested"])
    def test_entry_field_of_wrong_type_is_a_finding(self, record_doc, entry, text):
        doc = copy.deepcopy(record_doc)
        doc["change_logs"][2] = [{"op": "stalled"}, entry]
        result = validate_record(doc)
        [finding] = [f for f in result.violations if f.code == "ReplayMismatch"]
        assert finding.step == 3
        assert finding.detail == f"entry 1 ({entry['op']}): {text}"

    @pytest.mark.parametrize("entries", [
        [{"op": "split", "group": "gx", "new_group": "g9", "moved": []}],
        [{"op": "joined", "survivor": "g1", "absorbed": "gx", "moved": ["wx"]}],
        [],
    ], ids=["split", "join", "advance"])
    def test_replay_of_a_group_outside_the_ring(self, entries):
        # "gx" has members but no ring position; in the last case it is current
        snap = {"step": 0, "current": "g1" if entries else "gx", "ring": ["g1", "g2"],
                "members": {"g1": ["w1"], "g2": ["w2"], "gx": ["wx"]}}
        with pytest.raises(ReplayFailure, match="group gx is not in the ring"):
            replay_entries(snap, entries)

    def test_ring_naming_a_group_without_members(self, record_doc, tmp_path, capsys):
        # the replay out of state 1 once ended in a KeyError on "g9"
        doc = copy.deepcopy(record_doc)
        doc["states"][1]["ring"][0] = "g9"
        result = validate_record(doc)
        codes = {(f.step, f.code) for f in result.violations}
        assert {(1, "NotSingleCycle"), (2, "ReplayMismatch")} <= codes
        path = tmp_path / "record.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr()
        assert "step 2: ReplayMismatch: ring " in out.out
        assert "Traceback" not in out.out + out.err

    @pytest.mark.parametrize("ring", [["g1", "g1", "g2"], ["g1"]], ids=["twice", "missing"])
    def test_replay_rejects_a_ring_that_does_not_list_each_group_once(self, ring):
        snap = {"step": 0, "current": "g1", "ring": ring,
                "members": {"g1": ["w1"], "g2": ["w2"]}}
        with pytest.raises(ReplayFailure, match="does not list each group"):
            replay_entries(snap, [])

    def test_replay_rejects_bogus_entry(self, record_doc):
        snap = record_doc["states"][0]
        with pytest.raises(ReplayFailure):
            replay_entries(snap, [{"op": "removed", "worker": "nope",
                                   "group": snap["ring"][0]}])


class TestFloorReporting:
    """A group below the floor d is a warning while the pool is too small
    to give every group d workers (n < 2d), and a violation otherwise."""

    def test_below_floor_is_warning_when_degraded(self):
        snap = {"step": 0, "current": "g1", "ring": ["g1", "g2"],
                "members": {"g1": ["w1"], "g2": ["w2"]}}
        result = check_snapshot(snap, 0, d=2)  # n=2 < 2d=4
        assert result.ok
        assert [(f.code, f.detail) for f in result.warnings] == [
            ("BelowFloorDegraded", "group g1 has 1 < d=2 members"),
            ("BelowFloorDegraded", "group g2 has 1 < d=2 members")]

    def test_below_floor_is_violation_when_feasible(self):
        snap = {"step": 0, "current": "g1", "ring": ["g1", "g2"],
                "members": {"g1": ["w1"], "g2": ["w2", "w3", "w4"]}}
        result = check_snapshot(snap, 0, d=2)  # n=4 = 2d
        assert not result.warnings
        assert [(f.code, f.detail) for f in result.violations] == [
            ("BelowFloorDegraded", "group g1 has 1 < d=2 members although n=4 >= 2d")]


def _members_as_list(doc):
    snap = doc["states"][1]
    snap["members"] = list(snap["members"].values())


def _d_as_string(doc):
    doc["config"]["d"] = "2"


def _entry_as_string(doc):
    doc["change_logs"][0] = ["x"]


def _log_as_string(doc):
    doc["change_logs"][2] = "inserted"


def _entry_without_op(doc):
    doc["change_logs"][1] = [{"worker": "w1", "group": "g1"}]


def _stalls_as_string(doc):
    doc["stalls"] = "x"


def _stall_without_duration(doc):
    doc["stalls"] = [{"time": 3.0, "duration": 1.0}, {"time": 1}]


def _stall_duration_as_bool(doc):
    doc["stalls"] = [{"time": 3.0, "duration": True}]


def _stall_as_number(doc):
    doc["stalls"] = [2.0]


def _d_below_one(doc):
    doc["config"]["d"] = 0


def _unconsumed_as_string(doc):
    doc["unconsumed"] = "x"


def _unconsumed_time_as_string(doc):
    doc["unconsumed"] = [{"t": "x"}]


def _unconsumed_without_worker(doc):
    doc["unconsumed"] = [{"t": 3.0, "op": "depart", "worker": "w1"}, {"t": 4, "op": "arrive"}]


def _unconsumed_op_unknown(doc):
    doc["unconsumed"] = [{"t": 3.0, "op": "leave", "worker": "w1"}]


def dumped_bytes(record, directory) -> bytes:
    path = directory / "record.json"
    dump_record(record, path)
    return path.read_bytes()


def reference_bytes(record) -> bytes:
    return (json.dumps(record_to_dict(record), indent=1) + "\n").encode("utf-8")


# a config echo as a caller may pass it: nested, with floats and unicode
configs = st.dictionaries(
    tokens,
    st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | tokens,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(tokens, inner, max_size=3),
                 max_leaves=8),
    max_size=4)


group_ids = st.sampled_from(["g1", "g2", "g3", "\xe9", "\u2603"])


@st.composite
def state_chains(draw):
    """States that pass ``check_state`` and share some member tuple
    objects with the state before them and not others; the ring is kept,
    copied, renamed, grown or shrunk."""
    serial = count()  # a suffix that keeps every token of the chain distinct

    def group():
        return tuple(WorkerId(f"{t}#{next(serial)}", 0)
                     for t in draw(st.lists(tokens, min_size=1, max_size=3)))

    def ring_of(size):
        return tuple(draw(st.lists(group_ids, min_size=size, max_size=size, unique=True)))

    ring = ring_of(draw(st.integers(2, 4)))
    members = tuple(group() for _ in ring)
    states = [RotationState(ring, members, ring[0])]
    for step in range(1, draw(st.integers(1, 6))):
        how = draw(st.sampled_from(["same", "same", "copy", "rename", "resize"]))
        if how == "copy":
            ring = tuple(list(ring))
        elif how == "rename":
            ring = ring_of(len(ring))
        elif how == "resize":
            ring = ring_of(draw(st.integers(2, 4)))
        members = tuple(members[k] if k < len(members) and draw(st.booleans()) else group()
                        for k in range(len(ring)))
        states.append(RotationState(ring, members, ring[0], step))
    assert all(check_state(s).ok for s in states)
    return RunRecord(config={"d": 2}, states=states)


class TestRecordIO:
    def test_dump_and_load_roundtrip(self, record, record_doc, tmp_path):
        path = tmp_path / "record.json"
        dump_record(record, path)
        assert path.read_bytes() == reference_bytes(record)
        assert load_record(path) == record_doc

    def test_dump_matches_json_dump_with_every_entry_kind(self, tmp_path):
        record = scripted_run(
            ['w"1', "w\\2", "w\n3", "w\x004", "\xe95", "\u26036", "\U0001f6007",
             "w8", "w9", "w10", "w11", "w12"], 4,
            [(0.3, "depart", 44), (0.3, "depart", 58), (0.3, "depart", 33),
             (0.3, "arrive", 54), (0.3, "arrive", 45), (0.0, "arrive", 46),
             (0.3, "arrive", 34), (2.5, "depart", 0), (2.5, "depart", 52),
             (2.5, "depart", 46)],
            d=1, config={"note": "caf\xe9 \u2603", "nested": {"x": [0.1, -2.5e-300, None]}})
        ops = {e["op"] for log in record_to_dict(record)["change_logs"] for e in log}
        assert {"split", "joined", "stalled", "inserted", "removed"} <= ops
        assert record.stalls and record.unconsumed
        assert dumped_bytes(record, tmp_path) == reference_bytes(record)

    def test_dump_reencodes_only_changed_groups(self, tmp_path):
        a, b, c, d = ((WorkerId("\xe9a", 1),), (WorkerId("\u2603b", 2),),
                      (WorkerId("c", 3), WorkerId("\U0001f600", 4)), (WorkerId("d\n", 5),))
        ring = ("g1", "g2", "g3")
        states = [RotationState(ring, (a, b, c), "g1"),
                  RotationState(ring, (a, d, c), "g2", 1),                 # one changed group
                  RotationState(("g1", "g4", "g3"), (a, d, c), "g1", 2),   # renamed, same tuples
                  RotationState(("g4", "g1"), (d, a), "g4", 3),            # shrunk and reordered
                  RotationState(("g4", "g1"), (d, a + c), "g1", 4),
                  RotationState(tuple(["g4", "g1"]), (b, a + c), "g4", 5)]  # an equal ring
        assert all(check_state(s).ok for s in states)
        record = RunRecord(config={"d": 2}, states=states)
        assert dumped_bytes(record, tmp_path) == reference_bytes(record)

    @given(state_chains())
    @settings(max_examples=300, deadline=None)
    def test_dump_matches_json_dump_on_shared_member_tuples(self, tmp_path_factory, record):
        directory = tmp_path_factory.mktemp("chain")
        assert dumped_bytes(record, directory) == reference_bytes(record)

    @given(runs(config=configs))
    @settings(max_examples=150, deadline=None)
    def test_dump_matches_json_dump(self, tmp_path_factory, run):
        directory = tmp_path_factory.mktemp("dump")
        assert dumped_bytes(run, directory) == reference_bytes(run)

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"v": 1, "config": {}, "states": []}))
        with pytest.raises(CorruptRecord):
            load_record(path)

    @pytest.mark.parametrize("corrupt, path", [
        (_members_as_list, "states[1].members"),
        (_d_as_string, "config.d"),
        (_entry_as_string, "change_logs[0][0]"),
        (_log_as_string, "change_logs[2]"),
        (_entry_without_op, "change_logs[1][0]"),
        (_stalls_as_string, "stalls"),
        (_stall_without_duration, "stalls[1]"),
        (_stall_duration_as_bool, "stalls[0].duration"),
        (_stall_as_number, "stalls[0]"),
        (_d_below_one, "config.d"),
        (_unconsumed_as_string, "unconsumed"),
        (_unconsumed_time_as_string, "unconsumed[0].t"),
        (_unconsumed_without_worker, "unconsumed[1]"),
        (_unconsumed_op_unknown, "unconsumed[0].op"),
    ])
    def test_load_names_the_malformed_path(self, record_doc, tmp_path,
                                           corrupt, path):
        doc = copy.deepcopy(record_doc)
        corrupt(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(CorruptRecord, match=re.escape(path + ":")):
            load_record(bad)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({"v": 2}))
        with pytest.raises(CorruptRecord):
            load_record(path)

    def test_snapshot_schema(self, record_doc):
        snap = record_doc["states"][0]
        assert set(snap) == {"step", "current", "ring", "members"}
        assert list(snap["members"]) == snap["ring"]  # members in ring order


# -- edited records: only a GrtcError may escape ---------------------------

def value_paths(doc, prefix=()):
    """The path of every value inside a JSON document, root excluded."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


RECORD_VALUES = json_values(["g1", "g2", "g9", "w1", "w2", "op", "inserted", "joined",
                             "split", "donated", "stalled", "arrive", "depart"])


@pytest.fixture(scope="module")
def short_doc():
    """A record of ten states with a split, a join, donations, inserts and
    removals; short, so that an edit lands in a ring or a log often."""
    script = ([(0.4, "arrive", 0)] + [(0.05, "arrive", 0)] * 6
              + [(1.0, "depart", 0), (0.1, "depart", 3), (1.0, "depart", 1),
                 (0.1, "depart", 2), (0.1, "depart", 0), (0.1, "depart", 5),
                 (0.1, "depart", 1), (1.0, "arrive", 0), (1.0, "depart", 4)])
    doc = record_to_dict(scripted_run([f"w{k}" for k in range(1, 15)], 6, script,
                                      count=9, config={"d": 2}))
    ops = {e["op"] for log in doc["change_logs"] for e in log}
    assert {"split", "joined", "donated", "inserted", "removed"} <= ops
    return doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edited_record_raises_only_grtc_errors(short_doc, tmp_path, data):
    doc = copy.deepcopy(short_doc)
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(value_paths(doc))
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths))
        target = doc
        for p in parents:
            target = target[p]
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(RECORD_VALUES)
    path = tmp_path / "record.json"
    path.write_text(json.dumps(doc))
    try:
        validate_record(load_record(path))
    except GrtcError:
        pass

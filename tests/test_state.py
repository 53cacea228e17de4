import pickle

import pytest
from hypothesis import given, settings

from grtc import (
    OperatorPolicy, RotationState, StressWeights, TaskSchedule, TraceConfig, next_state,
)
from grtc.errors import InvalidState, UnknownGroup, UnknownWorker
from grtc.state import (
    Code,
    ValidationReport,
    WorkerId,
    Workspace,
    advance_current,
    build_state,
    counter_of_group,
    counter_of_worker,
    validate_pair,
)

from conftest import make_state, runs, snapshot


def worker(state, token):
    return next(w for ms in state.members for w in ms if w.token == token)


def ring_walk_counter(state, g):
    """Independent counter oracle: walk the ring from the current group."""
    pos = state.current
    k = 0
    while pos != g:
        pos = state.successor(pos)
        k += 1
        assert k <= state.m, "walk did not terminate"
    return k


class TestBuildState:
    def test_fig1_shape(self, fig1):
        assert fig1.m == 3
        assert fig1.n == 9
        assert fig1.successor("g1") == "g2"
        assert fig1.current == "g1"
        assert len(fig1.members_of("g1")) == 3
        assert len(fig1.members_of("g3")) == 4

    def test_single_group_rejected(self):
        with pytest.raises(InvalidState) as e:
            build_state([("g1", ["w1"])], current="g1")
        report = e.value.report
        assert isinstance(report, ValidationReport)
        assert Code.TOO_FEW_GROUPS in report.codes()

    def test_empty_group_rejected(self):
        with pytest.raises(InvalidState) as e:
            build_state([("g1", ["w1"]), ("g2", [])], current="g1")
        report = e.value.report
        assert isinstance(report, ValidationReport)
        assert Code.EMPTY_GROUP in report.codes()

    def test_all_violations_reported(self):
        # one group, empty, duplicated worker, current absent: every code at once
        with pytest.raises(InvalidState) as e:
            build_state([("g1", ["w1", "w1"]), ("g1", [])], current="gX")
        report = e.value.report
        assert isinstance(report, ValidationReport)
        assert {Code.NOT_PARTITION, Code.EMPTY_GROUP, Code.NOT_SINGLE_CYCLE,
                Code.CURRENT_MISSING} <= report.codes()

    def test_duplicate_worker_across_groups(self):
        with pytest.raises(InvalidState) as e:
            build_state([("g1", ["w1"]), ("g2", ["w1"])], current="g1")
        report = e.value.report
        assert isinstance(report, ValidationReport)
        assert Code.NOT_PARTITION in report.codes()

    def test_ring_order_preserved(self):
        state = make_state([("b", ["w1"]), ("a", ["w2"]), ("c", ["w3"])], "a")
        assert state.ring == ("b", "a", "c")
        assert state.successor("c") == "b"

    def test_seq_assigned_in_appearance_order(self, fig1):
        seqs = [w.seq for ms in fig1.members for w in ms]
        assert seqs == sorted(seqs)
        assert worker(fig1, "w1").seq < worker(fig1, "w9").seq


class TestCounters:
    def test_current_group_is_zero(self, fig1):
        assert counter_of_group(fig1, "g1") == 0

    def test_fig1_counters(self, fig1):
        assert counter_of_group(fig1, "g2") == 1
        assert counter_of_group(fig1, "g3") == 2

    def test_counter_matches_ring_walk(self, fig1):
        for g in fig1.ring:
            assert counter_of_group(fig1, g) == ring_walk_counter(fig1, g)

    def test_counter_is_bijection(self, fig1):
        counters = {counter_of_group(fig1, g) for g in fig1.ring}
        assert counters == set(range(fig1.m))

    def test_unknown_group(self, fig1):
        with pytest.raises(UnknownGroup):
            counter_of_group(fig1, "g9")

    def test_worker_counter(self, fig1):
        assert counter_of_worker(fig1, "w1") == 0
        assert counter_of_worker(fig1, "w6") == 2

    def test_worker_counter_after_advance(self, fig1):
        nxt = advance_current(fig1)
        assert counter_of_worker(nxt, "w6") == ring_walk_counter(nxt, "g3") == 1

    def test_unknown_worker(self, fig1):
        with pytest.raises(UnknownWorker):
            counter_of_worker(fig1, "w99")


class TestAdvance:
    def test_moves_to_successor(self, fig1):
        assert advance_current(fig1).current == "g2"

    def test_full_lap_returns(self, fig1):
        state = fig1
        for _ in range(fig1.m):
            state = advance_current(state)
        assert state.current == fig1.current
        assert state.step_index == fig1.step_index + fig1.m

    def test_membership_untouched(self, fig1):
        nxt = advance_current(fig1)
        assert nxt.ring == fig1.ring
        assert nxt.members == fig1.members


class TestValidatePair:
    def test_advance_is_a_follow(self, fig1):
        assert validate_pair(fig1, advance_current(fig1)).ok

    def test_wrong_successor(self, fig1):
        bad = RotationState(fig1.ring, fig1.members, "g3", 1, fig1.used_group_ids,
                            fig1.next_seq)
        report = validate_pair(fig1, bad)
        assert Code.FOLLOWS_WRONG_SUCCESSOR in report.codes()

    def test_overlap_detected(self, fig1):
        # move w1 (member of old current g1) into g2, the next current group
        w1 = worker(fig1, "w1")
        moved = make_state(
            [("g1", ["w2", "w3"]),
             ("g2", ["w4", "w5", WorkerId("w1", w1.seq)]),
             ("g3", ["w6", "w7", "w8", "w9"])], "g2")
        report = validate_pair(fig1, moved)
        # independent oracle: plain set intersection over tokens
        prev_tokens = {w.token for w in fig1.members_of("g1")}
        next_tokens = {w.token for w in moved.members_of("g2")}
        assert prev_tokens & next_tokens == {"w1"}
        assert Code.FOLLOWS_OVERLAP in report.codes()

    def test_eliminated_current_detected(self, fig1):
        merged = make_state(
            [("g2", ["w4", "w5", "w1", "w2", "w3"]),
             ("g3", ["w6", "w7", "w8", "w9"])], "g2")
        report = validate_pair(fig1, merged)
        assert Code.FOLLOWS_CURRENT_GONE in report.codes()


class TestValueTypes:
    """The contracts the value types keep however they are built."""

    def test_worker_id_reprs_hashes_and_sorts_by_token_then_seq(self):
        w = WorkerId("w1", 3)
        assert repr(w) == "WorkerId(token='w1', seq=3)"
        assert (w.token, w.seq) == ("w1", 3)
        assert w == WorkerId(token="w1", seq=3)
        assert hash(w) == hash(("w1", 3))  # as the frozen dataclass hashed its fields
        ids = [WorkerId("b", 1), WorkerId("a", 2), WorkerId("a", 1), WorkerId("ab", 0)]
        assert sorted(ids) == [WorkerId("a", 1), WorkerId("a", 2), WorkerId("ab", 0),
                               WorkerId("b", 1)]
        assert max(ids, key=lambda x: x.seq) == WorkerId("a", 2)

    @pytest.mark.parametrize("name", ["ring", "members", "current", "step_index",
                                      "used_group_ids", "next_seq", "indexes"])
    def test_state_fields_cannot_be_assigned(self, fig1, policy, strategies, name):
        published, _ = next_state(fig1, policy, strategies, [])
        for state in (fig1, published):
            with pytest.raises(AttributeError):
                setattr(state, name, None)

    def test_equality_and_hash_ignore_the_bookkeeping(self, fig1):
        other = type(fig1)(fig1.ring, fig1.members, fig1.current, fig1.step_index,
                           frozenset({"g1", "g2", "g3", "g7"}), fig1.next_seq + 5)
        carrying, bare = Workspace(fig1).publish(), advance_current(fig1)
        assert carrying.indexes is not None and bare.indexes is None
        for a, b in ((other, fig1), (carrying, bare)):
            assert a == b and hash(a) == hash(b)
        assert bare != fig1  # the current group and the step do count

    def test_replace_drops_the_indexes(self, fig1):
        # a state rebuilt from a published one's fields carries no indexes
        published = Workspace(fig1).publish()
        derived = RotationState(published.ring, published.members, published.current, 7,
                                published.used_group_ids, published.next_seq)
        assert derived.indexes is None
        assert (derived.ring, derived.members, derived.current, derived.step_index,
                derived.used_group_ids, derived.next_seq) == \
            (published.ring, published.members, published.current, 7,
             published.used_group_ids, published.next_seq)

    @pytest.mark.parametrize("value, field, other", [
        (OperatorPolicy(d=3, max_multiplier=2), "d", OperatorPolicy(d=3, max_multiplier=3)),
        (StressWeights(beta=1.0), "alpha", StressWeights()),
        (TaskSchedule.periodic(1.0, 3), "times", TaskSchedule.periodic(1.0, 4)),
        (TraceConfig(seed=5), "seed", TraceConfig(seed=6)),
    ], ids=["policy", "weights", "schedule", "trace"])
    def test_run_key_parts_are_values(self, value, field, other):
        # a parallel sweep sends them to its pool as parts of a ``sweep.RunKey``
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and repr(copy) == repr(value)
        assert copy == value and not copy != value and hash(copy) == hash(value)
        assert value != other and not value == other
        with pytest.raises(AttributeError):
            setattr(value, field, None)

    def test_publish_advances_the_snapshot_and_carries_the_maps(self, fig1):
        ws = Workspace(fig1)
        published = ws.publish()
        want = advance_current(snapshot(ws))
        assert published == want
        assert (published.used_group_ids, published.next_seq) == \
            (want.used_group_ids, want.next_seq)
        pos, group, by_size = published.indexes
        assert pos is ws.pos and group is ws.group and by_size is ws.by_size
        # an untouched workspace shares every member tuple with its input
        assert all(a is b for a, b in zip(published.members, fig1.members, strict=True))

    def test_without_indexes_is_an_equal_state_that_carries_none(self, fig1):
        published = Workspace(fig1).publish()
        bare = published.without_indexes()
        assert bare == published and bare.indexes is None
        assert (bare.used_group_ids, bare.next_seq) == \
            (published.used_group_ids, published.next_seq)
        assert bare.without_indexes() is bare

    @given(runs())
    @settings(max_examples=100, deadline=None)
    def test_a_run_record_keeps_no_indexes(self, record):
        assert [s.indexes for s in record.states] == [None] * len(record.states)

import pytest

from grtc.errors import InvalidState, UnknownGroup, UnknownWorker
from grtc.state import (
    Code,
    ValidationReport,
    WorkerId,
    advance_current,
    build_state,
    counter_of_group,
    counter_of_worker,
    validate_pair,
)

from conftest import make_state


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
        import dataclasses
        bad = dataclasses.replace(fig1, current="g3", step_index=1)
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

import pytest

from grtc import OperatorPolicy, StallError, StrategySet, WorkerEvent, next_state
from grtc.errors import (
    BelowThreshold,
    DonorTooSmall,
    ForbiddenMove,
    TooFewGroups,
    UnknownWorker,
)
from grtc.operators import (
    DegradedEntered,
    Donated,
    Inserted,
    Joined,
    Removed,
    Split,
    Stalled,
    donate_worker,
    insert_worker,
    join_groups,
    remove_worker,
    split_group,
)
from grtc.recordcheck import replay_entries
from grtc.records import state_snapshot
from grtc.state import (
    WorkerId,
    Workspace,
    advance_current,
    check_state,
    counter_of_worker,
    validate_pair,
)

from conftest import make_state, on_workspace


def assert_replay_matches(before, log, after):
    """The change log, applied to the pre-state snapshot, must reproduce
    the post-state snapshot exactly (after the final advance)."""
    got = replay_entries(state_snapshot(before), [e.to_dict() for e in log])
    assert got == state_snapshot(advance_current(after))


def assert_valid_and_follows(before, after):
    assert check_state(after).ok, check_state(after)
    published = advance_current(after)
    assert validate_pair(before, published).ok, validate_pair(before, published)


def one_event(state, policy, strat, op, token):
    """Apply a single arrival or departure as a one-event batch, the way
    the simulator does; returns the published state and its change log."""
    return next_state(state, policy, strat, [WorkerEvent(1.0, op, token)])


def assert_published_follows(before, published, log):
    assert check_state(published).ok, check_state(published)
    assert validate_pair(before, published).ok, validate_pair(before, published)
    got = replay_entries(state_snapshot(before), [e.to_dict() for e in log])
    assert got == state_snapshot(published)


class TestInsert:
    def test_insert_below_threshold_no_split(self, fig1, policy):
        strat = StrategySet(choose="balanced")
        out, log = on_workspace(insert_worker, fig1, policy, strat, WorkerId("w10", 10))
        assert [type(e) for e in log] == [Inserted]
        assert out.ring == fig1.ring
        assert out.group_of("w10") == "g2"  # smallest group
        assert_valid_and_follows(fig1, out)
        assert_replay_matches(fig1, log, out)

    def test_insert_keeps_existing_counters(self, fig1, policy):
        strat = StrategySet(choose="balanced")
        out, _ = on_workspace(insert_worker, fig1, policy, strat, WorkerId("w10", 10))
        for token in ("w1", "w4", "w6"):
            assert counter_of_worker(out, token) == counter_of_worker(fig1, token)

    def test_insert_over_threshold_splits(self, policy):
        # concentrated fills the current group A past max(d)=4
        state = make_state([("A", ["w1", "w2", "w3", "w4"]),
                            ("B", ["w5", "w6"]), ("C", ["w7", "w8"])], "A")
        strat = StrategySet(choose="concentrated")
        out, log = on_workspace(insert_worker, state, policy, strat, WorkerId("w9", 9))
        assert [type(e) for e in log] == [Inserted, Split]
        # size bookkeeping by hand: 4 + 1 = 5 > 4, halves 3 and 2
        assert len(out.members_of("A")) == 3
        fresh = log[1].new_group
        assert len(out.members_of(fresh)) == 2
        assert out.m == 4
        assert_valid_and_follows(state, out)
        assert_replay_matches(state, log, out)


class TestRemove:
    """Departures reach ``remove_worker`` only through ``next_state``, so
    each case runs as a one-event batch and checks the published state."""

    def test_donor_refills(self, policy):
        # A:2 (current) B:3 C:2; C loses one; only B can spare a worker
        state = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4", "w5"]),
                            ("C", ["w6", "w7"])], "A")
        strat = StrategySet(choose="balanced", find_order="pred-first")
        out, log = one_event(state, policy, strat, "depart", "w6")
        assert [type(e) for e in log] == [Removed, Donated]
        assert log[1].from_group == "B"
        assert log[1].worker.token == "w5"  # newest member of B
        assert len(out.members_of("C")) == 2
        assert out.m == 3  # group count preserved
        assert all(len(out.members_of(g)) >= policy.d for g in out.ring)
        assert_published_follows(state, out, log)

    def test_join_when_no_donor(self, policy):
        # all groups at the floor: C loses one, nobody can spare ->
        # join; with Succ(C) = A = current, the current group absorbs C
        state = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4"]),
                            ("C", ["w5", "w6"])], "A")
        strat = StrategySet(choose="balanced")
        out, log = one_event(state, policy, strat, "depart", "w5")
        assert [type(e) for e in log] == [Removed, Joined]
        assert out.m == 2
        assert log[1].survivor == "A"
        assert len(out.members_of("A")) == 3  # 1 + 2
        assert_published_follows(state, out, log)

    def test_remove_to_one_worker_stalls(self, policy, strategies):
        state = make_state([("A", ["w1"]), ("B", ["w2"])], "A")
        with pytest.raises(StallError):
            one_event(state, policy, strategies, "depart", "w1")

    def test_unknown_worker(self, fig1, policy, strategies):
        with pytest.raises(UnknownWorker):
            remove_worker(Workspace(fig1), policy, strategies, "nobody")

    def test_no_restructure_roundtrip(self, fig1, policy):
        strat = StrategySet(choose="balanced")
        mid, log1 = one_event(fig1, policy, strat, "arrive", "w10")
        out, log2 = one_event(mid, policy, strat, "depart", "w10")
        assert [type(e) for e in log1] == [Inserted]
        assert [type(e) for e in log2] == [Removed]
        assert out.members == fig1.members
        assert out.ring == fig1.ring

    def test_degraded_entry_when_pool_too_small(self, policy):
        # n drops to 3 < 2d: the floor is infeasible, rotation continues
        state = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4"])], "A")
        strat = StrategySet(choose="balanced")
        out, log = one_event(state, policy, strat, "depart", "w3")
        ops = [e.to_dict()["op"] for e in log]
        assert ops == ["removed", "degraded"]
        assert out.m == 2
        assert_published_follows(state, out, log)

    def test_blocked_repair_stalls(self, policy):
        # two groups, plenty of workers, but the deficient group performs
        # next and every possible donor worker just performed: no legal
        # repair exists, so the transition must stall rather than break
        # the rotation contract
        state = make_state(
            [("A", ["w1", "w2", "w3", "w4"]), ("B", ["w5", "w6"])], "A")
        strat = StrategySet(choose="balanced")
        with pytest.raises(StallError):
            one_event(state, policy, strat, "depart", "w5")


class TestSplitGroup:
    def test_split_non_current(self, policy):
        state = make_state(
            [("A", ["w1", "w2"]),
             ("B", ["w3", "w4", "w5", "w6", "w7"]),
             ("C", ["w8", "w9"])], "A")
        out, log = on_workspace(split_group, state, policy, "B")
        entry = log[0]
        # seq-order oracle: recompute halves from scratch
        by_seq = sorted(state.members_of("B"), key=lambda w: w.seq)
        assert list(out.members_of("B")) == by_seq[:3]
        assert list(entry.moved) == by_seq[3:]
        assert out.successor("B") == entry.new_group
        assert_valid_and_follows(state, out)
        assert_replay_matches(state, log, out)

    def test_split_current_lands_before_it(self, policy):
        state = make_state(
            [("A", ["w1", "w2", "w3", "w4", "w5"]),
             ("B", ["w6", "w7"]), ("C", ["w8", "w9"])], "A")
        out, log = on_workspace(split_group, state, policy, "A")
        fresh = log[0].new_group
        assert out.ring[out.index_of("A") - 1] == fresh
        assert out.successor("A") == "B"  # moved workers not in the next group
        assert_valid_and_follows(state, out)
        assert_replay_matches(state, log, out)

    def test_at_threshold_rejected(self, policy):
        state = make_state(
            [("A", ["w1", "w2", "w3", "w4"]), ("B", ["w5", "w6"])], "A")
        with pytest.raises(BelowThreshold):
            on_workspace(split_group, state, policy, "A")

    def test_halves_meet_floor(self):
        # every splittable size up to 11: the senior half stays, with the
        # extra worker on odd sizes, and both halves keep the floor
        for d in (1, 2, 3):
            policy = OperatorPolicy(d=d, max_multiplier=2)
            for size in range(policy.max_size + 1, 12):
                tokens = [f"w{i}" for i in range(1, size + 3)]
                state = make_state([("A", tokens[:size]), ("B", tokens[size:])], "B")
                out, log = on_workspace(split_group, state, policy, "A")
                stay, moved = out.members_of("A"), log[0].moved
                assert list(stay) + list(moved) == list(state.members_of("A"))
                assert len(stay) - len(moved) in (0, 1)
                assert len(moved) >= d
                assert out.members_of(log[0].new_group) == moved

    def test_fresh_group_id_never_reused(self, policy):
        state = make_state([("g1", ["w1", "w2"]), ("g2", ["w3", "w4"]),
                            ("g3", ["w5", "w6", "w7", "w8", "w9"])], "g1")
        # retire g3 via join, then split: the new id must not be g3
        joined, _ = on_workspace(join_groups, state, "g2")
        merged = joined.members_of("g2")
        assert len(merged) == 7
        out, log = on_workspace(split_group, joined, policy, "g2")
        assert log[0].new_group == "g4"


class TestJoinGroups:
    def test_plain_deficient_absorbs_successor(self):
        state = make_state(
            [("A", ["w1", "w2"]), ("B", ["w3"]), ("C", ["w4", "w5"]),
             ("D", ["w6", "w7"])], "A")
        out, log = on_workspace(join_groups, state, "B")
        assert (log[0].survivor, log[0].absorbed) == ("B", "C")
        assert out.ring == ("A", "B", "D")
        assert_valid_and_follows(state, out)
        assert_replay_matches(state, log, out)

    def test_predecessor_of_current_absorbed_by_current(self):
        state = make_state(
            [("A", ["w1", "w2"]), ("B", ["w3", "w4"]), ("C", ["w5", "w6"]),
             ("D", ["w7"])], "A")
        out, log = on_workspace(join_groups, state, "D")
        assert (log[0].survivor, log[0].absorbed) == ("A", "D")
        assert out.ring == ("A", "B", "C")
        assert "A" in out.ring  # the old current group survives
        assert_valid_and_follows(state, out)
        assert_replay_matches(state, log, out)

    def test_deficient_current_absorbs_predecessor(self):
        state = make_state(
            [("A", ["w1"]), ("B", ["w2", "w3"]), ("C", ["w4", "w5"])], "A")
        out, log = on_workspace(join_groups, state, "A")
        assert (log[0].survivor, log[0].absorbed) == ("A", "C")
        assert out.ring == ("A", "B")
        assert_valid_and_follows(state, out)
        assert_replay_matches(state, log, out)

    def test_two_groups_rejected(self):
        state = make_state([("A", ["w1", "w2"]), ("B", ["w3"])], "A")
        with pytest.raises(TooFewGroups):
            on_workspace(join_groups, state, "B")

    def test_refused_join_leaves_the_workspace_as_it_was(self, policy):
        # earlier in the batch w3, who just performed in A, went to C; B
        # performs next, so B absorbing C is refused
        state = make_state([("A", ["w1", "w2", "w3"]), ("B", ["w4"]),
                            ("C", ["w5", "w6"])], "A")
        ws = Workspace(state)
        donate_worker(ws, policy, "A", "C")
        ring, members, log = ws.ring, list(ws.members), list(ws.log)
        with pytest.raises(ForbiddenMove):
            join_groups(ws, "B")
        assert (ws.ring, ws.members, ws.log) == (ring, members, log)


class TestDonate:
    def test_newest_moves(self, policy):
        state = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4", "w5"]),
                            ("C", ["w6", "w7"])], "A")
        out, log = on_workspace(donate_worker, state, policy, "B", "C")
        assert log[0].worker.token == "w5"
        assert [w.token for w in out.members_of("B")] == ["w3", "w4"]
        assert [w.token for w in out.members_of("C")] == ["w6", "w7", "w5"]
        assert_replay_matches(state, log, out)

    def test_current_to_successor_forbidden(self, policy):
        state = make_state([("A", ["w1", "w2", "w3"]), ("B", ["w4", "w5"])], "A")
        with pytest.raises(ForbiddenMove):
            on_workspace(donate_worker, state, policy, "A", "B")

    def test_donor_at_floor_rejected(self, policy):
        state = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4"]),
                            ("C", ["w5", "w6"])], "A")
        with pytest.raises(DonorTooSmall):
            on_workspace(donate_worker, state, policy, "B", "C")


class TestEntryCodec:
    @pytest.mark.parametrize("entry, d", [
        (Inserted(WorkerId("w1", 1), "g1"), {"op": "inserted", "worker": "w1", "group": "g1"}),
        (Removed(WorkerId("w1", 1), "g1"), {"op": "removed", "worker": "w1", "group": "g1"}),
        (Split("g1", "g4", (WorkerId("w5", 5), WorkerId("w6", 6))),
         {"op": "split", "group": "g1", "new_group": "g4", "moved": ["w5", "w6"]}),
        (Joined("g1", "g2", (WorkerId("w3", 3),)),
         {"op": "joined", "survivor": "g1", "absorbed": "g2", "moved": ["w3"]}),
        (Donated(WorkerId("w5", 5), "g2", "g3"),
         {"op": "donated", "worker": "w5", "from": "g2", "to": "g3"}),
        (DegradedEntered("g2"), {"op": "degraded", "group": "g2"}),
        (Stalled(), {"op": "stalled"}),
    ], ids=["inserted", "removed", "split", "joined", "donated", "degraded", "stalled"])
    def test_round_trip(self, entry, d):
        # the dict form drops only the sequence numbers
        assert entry.to_dict() == d
        assert list(entry.to_dict()) == list(d)  # key order is part of the format

import copy

import pytest

from grtc import OperatorPolicy, StallError, StrategySet, WorkerEvent, next_state
from grtc.errors import ForbiddenMove
from grtc.operators import (
    DegradedEntered,
    Donated,
    Inserted,
    Joined,
    Removed,
    Split,
    Stalled,
    _repair_deficiency,
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
        out, log = on_workspace(insert_worker, fig1, policy, strat, "w10")
        assert [type(e) for e in log] == [Inserted]
        assert out.ring == fig1.ring
        assert "w10" in {w.token for w in out.members_of("g2")}  # smallest group
        assert_valid_and_follows(fig1, out)
        assert_replay_matches(fig1, log, out)

    def test_insert_keeps_existing_counters(self, fig1, policy):
        strat = StrategySet(choose="balanced")
        out, _ = on_workspace(insert_worker, fig1, policy, strat, "w10")
        for token in ("w1", "w4", "w6"):
            assert counter_of_worker(out, token) == counter_of_worker(fig1, token)

    def test_insert_over_threshold_splits(self, policy):
        # concentrated fills the current group A past max(d)=4
        state = make_state([("A", ["w1", "w2", "w3", "w4"]),
                            ("B", ["w5", "w6"]), ("C", ["w7", "w8"])], "A")
        strat = StrategySet(choose="concentrated")
        out, log = on_workspace(insert_worker, state, policy, strat, "w9")
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

    @pytest.mark.xfail(strict=True, reason=(
        "remove_worker notes a 'degraded' repair outcome without the floor test "
        "that reconcile applies: see the FOUND line on DegradedEntered in CHANGES.md"))
    def test_no_degraded_entry_while_the_pool_holds_2d(self):
        # d=3 and n=9 after the departures of w4 and w1: the emergency
        # donation to the emptied g1 leaves it one worker, yet the floor is d
        state = make_state([("g1", ["w1"]), ("g2", ["w2", "w3", "w4"]),
                            ("g3", ["w5", "w6", "w7"]),
                            ("g4", ["w8", "w9", "w10", "w11"])], "g4")
        batch = [WorkerEvent(1.0, "depart", "w4"), WorkerEvent(1.0, "depart", "w1"),
                 WorkerEvent(1.0, "depart", "w11"), WorkerEvent(1.0, "arrive", "a3")]
        _, log = next_state(state, OperatorPolicy(d=3),
                            StrategySet(choose="balanced", find_order="pred-first"), batch)
        assert not any(isinstance(e, DegradedEntered) for e in log)

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

    def test_broken_donor_size_is_a_bug_not_a_hang(self, monkeypatch):
        # find_donor accepting a donor one size too small leaves the donor
        # below the floor after every donation; reconcile's bounded loop
        # raises instead of repairing forever
        import grtc.operators
        real = grtc.operators.find_donor
        monkeypatch.setattr(grtc.operators, "find_donor",
                            lambda ws, g, order, min_size: real(ws, g, order, min_size - 1))
        w = {s: WorkerId(f"w{s}", s) for s in range(1, 8)}
        state = make_state([("g1", [w[3], w[7]]), ("g2", [w[6], w[5], w[4]]),
                            ("g3", [w[2], w[1]])], "g1")
        batch = [WorkerEvent(1.0, "depart", t) for t in ("w7", "w2", "w5")]
        with pytest.raises(RuntimeError, match=r"reconcile: group g\d is still below the floor "
                                               r"after 12 repair attempts"):
            next_state(state, OperatorPolicy(d=2), StrategySet(choose="balanced"), batch)


class TestReconcile:
    """The batch-end pass repairs the group below the floor nearest the
    current group, an empty group first, and stops at the first attempt
    that leaves its group below the floor."""

    def test_stops_at_the_nearest_group_it_cannot_repair(self):
        # d=2, ring A B D, current A.  D loses its one worker and gets A's
        # newest (w4, who just performed), still below the floor; B loses
        # w5 and cannot be repaired: A's newest just performed, and the
        # join with D would bring w4 into B, which performs next
        policy, strat = OperatorPolicy(d=2), StrategySet(choose="balanced")
        state = make_state([("A", ["w1", "w2", "w3", "w4"]), ("B", ["w5", "w6"]),
                            ("D", ["w7"])], "D")
        carried, _ = next_state(state, OperatorPolicy(d=1), strat, [])  # current A
        before = (copy.deepcopy(carried.indexes), carried.ring, carried.members,
                  carried.current, carried.next_seq)
        ws = Workspace(carried)
        for token in ("w7", "w5"):
            remove_worker(ws, policy, strat, token)
        assert _repair_deficiency(ws, policy, strat, "D")  # the farther one can be
        batch = [WorkerEvent(1.0, "depart", t) for t in ("w7", "w5")]
        with pytest.raises(StallError, match=r"^groups \['B', 'D'\] are below the floor d=2$"):
            next_state(carried, policy, strat, batch)
        assert (carried.indexes, carried.ring, carried.members, carried.current,
                carried.next_seq) == before

    @pytest.mark.parametrize("order", ["pred-first", "succ-first"])
    def test_an_empty_group_goes_first(self, order):
        # at the batch end (n=4) the current g1 holds w2, g2 (performing
        # next) is empty and g3 holds w3 a7 a8, w3 having just performed.
        # g2 first: g3 gives it a8, g1 absorbs g3, g1 gives g2 a7.  g1
        # first would take a8, and g2 could only get an emergency donation
        state = make_state([("g1", ["w1", "w2", "w3"]), ("g2", ["w4"]), ("g3", ["w5"]),
                            ("g4", ["w6"])], "g1")
        batch = [WorkerEvent(1.0, "depart", t) for t in ("w5", "w1", "w4", "w6")]
        batch += [WorkerEvent(1.0, "arrive", t) for t in ("a7", "a8")]
        out, log = next_state(state, OperatorPolicy(d=2),
                              StrategySet(choose="farthest", find_order=order), batch)
        assert [e.to_dict() for e in log[-3:]] == [
            {"op": "donated", "worker": "a8", "from": "g3", "to": "g2"},
            {"op": "joined", "survivor": "g1", "absorbed": "g3", "moved": ["w3", "a7"]},
            {"op": "donated", "worker": "a7", "from": "g1", "to": "g2"}]
        assert [[w.token for w in ms] for ms in out.members] == [["w2", "w3"], ["a8", "a7"]]
        assert_published_follows(state, out, log)

    def test_an_emergency_donation_below_the_floor_stalls(self):
        # at the batch end (n=4, floor 2) g2 (performing next) is empty,
        # the current g1 holds w3 a8, and the split-off g3 holds w4 a7,
        # w4 having just performed.  Only an emergency donation (a8) fills
        # g2, and the pass stops there.  Going on, g1 would absorb g3 and
        # give g2 a7, publishing g2's DegradedEntered in a pool of 2d
        state = make_state([("g1", ["w1", "w2", "w3", "w4"]), ("g2", ["w5", "w6"])], "g1")
        events = [("depart", "w5"), ("depart", "w6"), ("arrive", "a7"), ("depart", "w1"),
                  ("arrive", "a8"), ("depart", "w2")]
        with pytest.raises(StallError):
            next_state(state, OperatorPolicy(d=2),
                       StrategySet(choose="concentrated", find_order="pred-first"),
                       [WorkerEvent(1.0, op, t) for op, t in events])


class TestSplitGroup:
    def test_split_non_current(self):
        state = make_state(
            [("A", ["w1", "w2"]),
             ("B", ["w3", "w4", "w5", "w6", "w7"]),
             ("C", ["w8", "w9"])], "A")
        out, log = on_workspace(split_group, state, "B")
        entry = log[0]
        # seq-order oracle: recompute halves from scratch
        by_seq = sorted(state.members_of("B"), key=lambda w: w.seq)
        assert list(out.members_of("B")) == by_seq[:3]
        assert list(entry.moved) == by_seq[3:]
        assert out.successor("B") == entry.new_group
        assert_valid_and_follows(state, out)
        assert_replay_matches(state, log, out)

    def test_split_current_lands_before_it(self):
        state = make_state(
            [("A", ["w1", "w2", "w3", "w4", "w5"]),
             ("B", ["w6", "w7"]), ("C", ["w8", "w9"])], "A")
        out, log = on_workspace(split_group, state, "A")
        fresh = log[0].new_group
        assert out.ring[out.index_of("A") - 1] == fresh
        assert out.successor("A") == "B"  # moved workers not in the next group
        assert_valid_and_follows(state, out)
        assert_replay_matches(state, log, out)

    def test_halves_meet_floor(self):
        # every splittable size up to 11: the senior half stays, with the
        # extra worker on odd sizes, and both halves keep the floor
        for d in (1, 2, 3):
            policy = OperatorPolicy(d=d, max_multiplier=2)
            for size in range(policy.max_size + 1, 12):
                tokens = [f"w{i}" for i in range(1, size + 3)]
                state = make_state([("A", tokens[:size]), ("B", tokens[size:])], "B")
                out, log = on_workspace(split_group, state, "A")
                stay, moved = out.members_of("A"), log[0].moved
                assert list(stay) + list(moved) == list(state.members_of("A"))
                assert len(stay) - len(moved) in (0, 1)
                assert len(moved) >= d
                assert out.members_of(log[0].new_group) == moved

    def test_fresh_group_id_never_reused(self):
        state = make_state([("g1", ["w1", "w2"]), ("g2", ["w3", "w4"]),
                            ("g3", ["w5", "w6", "w7", "w8", "w9"])], "g1")
        # retire g3 via join, then split: the new id must not be g3
        joined, _ = on_workspace(join_groups, state, "g2")
        merged = joined.members_of("g2")
        assert len(merged) == 7
        out, log = on_workspace(split_group, joined, "g2")
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

    def test_refused_join_leaves_the_workspace_as_it_was(self):
        # earlier in the batch w3, who just performed in A, went to C; B
        # performs next, so B absorbing C is refused
        state = make_state([("A", ["w1", "w2", "w3"]), ("B", ["w4"]),
                            ("C", ["w5", "w6"])], "A")
        ws = Workspace(state)
        donate_worker(ws, "A", "C")
        ring, members, log = ws.ring, list(ws.members), list(ws.log)
        with pytest.raises(ForbiddenMove):
            join_groups(ws, "B")
        assert (ws.ring, ws.members, ws.log) == (ring, members, log)


class TestDonate:
    def test_newest_moves(self):
        state = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4", "w5"]),
                            ("C", ["w6", "w7"])], "A")
        out, log = on_workspace(donate_worker, state, "B", "C")
        assert log[0].worker.token == "w5"
        assert [w.token for w in out.members_of("B")] == ["w3", "w4"]
        assert [w.token for w in out.members_of("C")] == ["w6", "w7", "w5"]
        assert_replay_matches(state, log, out)


def fresh_entries():
    """One entry of each kind and its dict form, built anew on every call."""
    return [
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
    ]


ENTRY_KINDS = ["inserted", "removed", "split", "joined", "donated", "degraded", "stalled"]


class TestEntryCodec:
    @pytest.mark.parametrize("entry, d", fresh_entries(), ids=ENTRY_KINDS)
    def test_round_trip(self, entry, d):
        # the dict form drops only the sequence numbers
        assert entry.to_dict() == d
        assert list(entry.to_dict()) == list(d)  # key order is part of the format

    @pytest.mark.parametrize("k", range(len(ENTRY_KINDS)), ids=ENTRY_KINDS)
    def test_equals_a_fresh_copy(self, k):
        (entry, _), (copy_, _) = fresh_entries()[k], fresh_entries()[k]
        assert entry is not copy_
        assert entry == copy_ and not entry != copy_ and hash(entry) == hash(copy_)

    @pytest.mark.parametrize("a, b", [  # two kinds built from the same fields
        (Inserted(WorkerId("w1", 1), "g1"), Removed(WorkerId("w1", 1), "g1")),
        (Split("g1", "g2", (WorkerId("w3", 3),)), Joined("g1", "g2", (WorkerId("w3", 3),))),
    ], ids=["inserted-removed", "split-joined"])
    def test_kinds_differ_on_equal_fields(self, a, b):
        for x, y in ((a, b), (b, a)):
            assert not x == y and x != y

import random

import pytest

from grtc import (
    GrtcError,
    StrategySet,
    Workspace,
    choose_group,
    counter_of_group,
    find_donor,
    partition_for_split,
)

from grtc.operators import BatchContext

from conftest import make_state


class TestChoose:
    def test_balanced_picks_smallest(self, fig1, policy):
        # sizes g1:3 g2:2 g3:4
        assert choose_group(Workspace(fig1), policy, "balanced") == "g2"

    def test_farthest_picks_max_counter(self, fig1, policy):
        # counter oracle: g3 sits two hops from the current group
        distances = {g: counter_of_group(fig1, g) for g in fig1.ring}
        assert max(distances, key=distances.get) == "g3"
        assert choose_group(Workspace(fig1), policy, "farthest") == "g3"

    def test_concentrated_picks_biggest(self, fig1, policy):
        sizes = {g: len(fig1.members_of(g)) for g in fig1.ring}
        assert max(sizes.values()) == sizes["g3"]
        assert choose_group(Workspace(fig1), policy, "concentrated") == "g3"

    def test_concentrated_tie_breaks_to_smallest_counter(self, policy):
        state = make_state([("g1", ["w1", "w2"]), ("g2", ["w3", "w4"]),
                            ("g3", ["w5"])], "g2")
        # g1 and g2 tie on size; g2 is current (counter 0)
        assert choose_group(Workspace(state), policy, "concentrated") == "g2"

    def test_balanced_tie_breaks_to_largest_counter(self, policy):
        state = make_state([("g1", ["w1"]), ("g2", ["w2"]),
                            ("g3", ["w3", "w4"])], "g1")
        # g1/g2 tie at size 1; g2 has the larger counter
        assert choose_group(Workspace(state), policy, "balanced") == "g2"

    def test_balanced_never_max_concentrated_never_min(self, fig1, policy):
        sizes = {g: len(fig1.members_of(g)) for g in fig1.ring}
        ws = Workspace(fig1)
        assert sizes[choose_group(ws, policy, "balanced")] != max(sizes.values())
        assert sizes[choose_group(ws, policy, "concentrated")] != min(sizes.values())

    def test_hybrid_prefers_group_at_risk(self, fig1, policy):
        # g2 sits at the floor (size 2 = d)
        assert choose_group(Workspace(fig1), policy, "hybrid") == "g2"

    def test_hybrid_falls_back_to_farthest(self, policy):
        state = make_state([("g1", ["w1", "w2", "w3"]),
                            ("g2", ["w4", "w5", "w6"])], "g1")
        assert choose_group(Workspace(state), policy, "hybrid") == \
            choose_group(Workspace(state), policy, "farthest")

    def test_random_uniform_and_seeded(self, fig1, policy):
        rng = random.Random("s:choose")
        picks = [choose_group(Workspace(fig1), policy, "random", rng) for _ in range(300)]
        assert set(picks) == set(fig1.ring)
        rng2 = random.Random("s:choose")
        assert picks == [choose_group(Workspace(fig1), policy, "random", rng2)
                         for _ in range(300)]

    def test_random_requires_rng(self, fig1, policy):
        with pytest.raises(GrtcError):
            choose_group(Workspace(fig1), policy, "random")

    def test_deterministic_strategies_ignore_seed(self, fig1, policy):
        for kind in ("farthest", "concentrated", "balanced", "hybrid"):
            a = choose_group(Workspace(fig1), policy, kind, random.Random(1))
            b = choose_group(Workspace(fig1), policy, kind, random.Random(2))
            assert a == b

    def test_unknown_strategy_rejected(self):
        with pytest.raises(GrtcError):
            StrategySet(choose="nearest")


class TestPartitionForSplit:
    def test_five_members(self):
        stay, move = partition_for_split(["a", "b", "c", "d", "e"])
        assert stay == ["a", "b", "c"]
        assert move == ["d", "e"]

    def test_two_members(self):
        assert partition_for_split(["a", "b"]) == (["a"], ["b"])

    @pytest.mark.parametrize("n", range(2, 12))
    def test_halving_property(self, n):
        stay, move = partition_for_split(list(range(n)))
        assert stay + move == list(range(n))
        assert len(stay) - len(move) in (0, 1)

    def test_too_small(self):
        with pytest.raises(GrtcError):
            partition_for_split(["a"])


def scan(state, deficient, order, d=2):
    """find_donor for a donor that stays at the floor d, guarded as at the
    start of a batch (the current group's workers, its successor)."""
    ws = Workspace(state)
    guard = BatchContext.for_workspace(ws)
    return find_donor(ws, deficient, order, d + 1, guard.tainted, guard.protected)


class TestFindDonor:
    def test_scan_skips_small_groups(self):
        # sizes A:2 B:2 C:4 D:2, deficient B; first group that can spare
        # one (>= d+1 = 3) going pred-then-succ from B is C
        state = make_state(
            [("A", ["w1", "w2"]), ("B", ["w3", "w4"]),
             ("C", ["w5", "w6", "w7", "w8"]), ("D", ["w9", "w0"])], "A")
        got = scan(state, "B", "pred-first")
        # hand oracle: scan order from B is A, C, D; A too small -> C
        assert got == "C"

    def test_no_donor_when_all_at_floor(self):
        state = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4"]),
                            ("C", ["w5", "w6"])], "A")
        assert scan(state, "C", "pred-first") is None

    def test_current_not_used_for_its_successor(self):
        # only sizeable group is the current one, deficient group performs
        # next: donating there would rotate a just-performed worker straight in
        state = make_state([("A", ["w1", "w2", "w3", "w4"]),
                            ("B", ["w5"]), ("C", ["w6", "w7"])], "A")
        assert scan(state, "B", "pred-first") is None
        # the same donor is fine for a group that does not perform next
        assert scan(state, "C", "pred-first") == "A"

    def test_order_changes_preference(self):
        state = make_state(
            [("A", ["w1", "w2", "w3"]), ("B", ["w4"]),
             ("C", ["w5", "w6", "w7"]), ("D", ["w8", "w9"])], "D")
        assert scan(state, "B", "pred-first") == "A"
        assert scan(state, "B", "succ-first") == "C"

    def test_donor_size_and_distance_contract(self):
        state = make_state(
            [("A", ["w1", "w2"]), ("B", ["w3", "w4", "w5"]),
             ("C", ["w6", "w7"]), ("D", ["w8", "w9", "w10"])], "C")
        d = 2
        for deficient in state.ring:
            got = scan(state, deficient, "pred-first", d)
            if got is not None:
                assert len(state.members_of(got)) >= d + 1
            if deficient == state.successor(state.current):
                continue  # guarded; see test_current_not_used_for_its_successor
            # nearest-first over the whole ring: no nearer group can spare one
            i = state.index_of(deficient)
            hops = {g: min((i - j) % state.m, (j - i) % state.m)
                    for j, g in enumerate(state.ring)}
            spare = [g for g in state.ring
                     if g != deficient and len(state.members_of(g)) >= d + 1]
            assert (got is None) == (not spare)
            assert all(hops[g] >= hops[got] for g in spare)

import json
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from grtc import (
    OperatorPolicy,
    RotationState,
    StrategySet,
    StressWeights,
    TaskSchedule,
    TraceConfig,
    WorkerEvent,
    build_initial_state,
    generate_trace,
    next_state,
    record_to_dict,
    run_rotation,
    summarize_run,
)
from grtc.errors import InvalidPair
from grtc.generator import RunRecord
from grtc.metrics import _mean, _quartiles, transition_stress
from grtc.operators import Donated, Joined, Split
from grtc.state import WorkerId, advance_current, counter_of_worker

from conftest import make_state, on_workspace, runs
from oracle import oracle_report

W = StressWeights()  # alpha 1.0, beta 0.25, gamma 0.5


def donated_away_and_back():
    """A transition in which w6 (the newest worker) is donated from g2 to
    g1, then back to g2, in one batch: it ends in the group it started
    in.  Returns (state, next state, change log)."""
    w = {s: WorkerId(f"w{s}", s) for s in range(1, 8)}
    state = make_state([("g1", [w[3], w[7]]), ("g2", [w[6], w[5], w[4]]),
                        ("g3", [w[2], w[1]])], "g1")
    nxt, log = next_state(state, OperatorPolicy(d=2), StrategySet(choose="balanced"),
                          [WorkerEvent(1.0, "depart", t) for t in ("w7", "w2", "w5")])
    return state, nxt, log


ZERO_ROW = {"stress": 0.0, "moves": 0, "drops": 0, "rises": 0, "tasks": 0}


class TestTransitionStress:
    def test_pure_rotation_is_stress_free(self, fig1, policy, strategies):
        nxt, log = next_state(fig1, policy, strategies, [])
        stresses = transition_stress(fig1, nxt, W, log)
        assert set(stresses) == fig1.tokens()
        assert all(dict(s, tasks=0) == ZERO_ROW for s in stresses.values())
        # the worker at counter 2 lands exactly where promised
        assert counter_of_worker(fig1, "w6") == 2
        assert counter_of_worker(nxt, "w6") == 1

    def test_join_drops_counters_downstream(self, policy):
        # ring A(p) B C D, all at the floor; a departure from B forces a
        # join (B absorbs C).  The worker in D sat at counter 3 and was
        # promised 2; the shrunken ring makes it 1: drop of 1, score alpha.
        state = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4"]),
                            ("C", ["w5", "w6"]), ("D", ["w7", "w8"])], "A")
        strat = StrategySet(choose="balanced")
        assert counter_of_worker(state, "w7") == 3
        nxt, log = next_state(state, policy, strat,
                              [WorkerEvent(0.5, "depart", "w3")])
        assert any(e.to_dict()["op"] == "joined" for e in log)
        stresses = transition_stress(state, nxt, W, log)
        assert counter_of_worker(nxt, "w7") == 1  # oracle on the new state
        assert stresses["w7"]["drops"] == 1 and stresses["w7"]["rises"] == 0
        assert stresses["w7"]["stress"] == W.alpha

    def test_split_of_current_group(self):
        # current group of 5 splits: the moved pair expected counter 3,
        # lands at 2, and moved groups: alpha + gamma.  Stayers score 0.
        state = make_state(
            [("A", ["w1", "w2", "w3", "w4", "w5"]),
             ("B", ["w6", "w7"]), ("C", ["w8", "w9"])], "A")
        from grtc.operators import split_group
        mid, log = on_workspace(split_group, state, "A")
        nxt = advance_current(mid)
        stresses = transition_stress(state, nxt, W, log)
        moved = [w.token for w in log[0].moved]
        assert moved == ["w4", "w5"]
        assert nxt.m == 4  # A performed: its workers expect a full lap, 3
        for token in moved:
            assert counter_of_worker(nxt, token) == 2
            assert stresses[token]["drops"] == 1 and stresses[token]["rises"] == 0
            assert stresses[token]["moves"] == 1
            assert stresses[token]["stress"] == pytest.approx(W.alpha + W.gamma)
        for token in ("w1", "w2", "w3", "w6", "w7", "w8", "w9"):
            assert stresses[token]["stress"] == 0

    def test_arrivals_and_departures_excluded(self, fig1, policy):
        strat = StrategySet(choose="balanced")
        batch = [WorkerEvent(0.1, "arrive", "x1"),
                 WorkerEvent(0.2, "depart", "w9")]
        nxt, log = next_state(fig1, policy, strat, batch)
        stresses = transition_stress(fig1, nxt, W, log)
        # x1 joins g2, which performs next: its only row is that turn
        assert "x1" in {w.token for w in nxt.members_of(nxt.current)}
        assert stresses["x1"] == dict(ZERO_ROW, tasks=1)
        assert "w9" not in stresses

    def test_rejects_non_following_pair(self, fig1):
        with pytest.raises(InvalidPair):
            transition_stress(fig1, fig1, W, ())

    def test_drop_rise_exclusive(self, policy):
        state = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4"]),
                            ("C", ["w5", "w6"]), ("D", ["w7", "w8"])], "C")
        strat = StrategySet(choose="balanced")
        nxt, log = next_state(state, policy, strat,
                              [WorkerEvent(0.5, "depart", "w8")])
        for s in transition_stress(state, nxt, W, log).values():
            assert s["drops"] == 0 or s["rises"] == 0

    def test_donated_away_and_back_is_not_moved(self):
        state, nxt, log = donated_away_and_back()
        assert [(e.worker.token, e.from_group, e.to_group)
                for e in log if isinstance(e, Donated)] == [("w6", "g2", "g1"),
                                                            ("w6", "g1", "g2")]
        only_moves = StressWeights(alpha=0.0, beta=0.0, gamma=1.0)
        row = transition_stress(state, nxt, only_moves, log)["w6"]
        assert row["moves"] == 0 and row["stress"] == 0.0


class TestSummarize:
    def run_fixture(self, choose="balanced", seed=23, count=50):
        policy = OperatorPolicy(d=2)
        strategies = StrategySet.seeded(choose, "pred-first", seed)
        config = TraceConfig(seed=seed, duration=float(count), arrival_rate=0.6,
                             departure_rate=0.06, initial_workers=10)
        roster, events = generate_trace(config)
        initial = build_initial_state(roster, policy)
        return run_rotation(initial, policy, strategies,
                            TaskSchedule.periodic(1.0, count), events,
                            config={"d": 2, "choose": choose, "seed": seed})

    def test_no_event_run(self, fig1, policy, strategies):
        record = run_rotation(fig1, policy, strategies,
                              TaskSchedule.periodic(1.0, 4), [])
        report = summarize_run(record, W)
        assert report["totals"]["stress"] == 0
        assert report["burden"] == pytest.approx(1 / 3)
        assert report["mean_m"] == 3
        counts = report["counts"]
        assert counts["splits"] == counts["joins"] == counts["donations"] == 0

    def test_counts_match_change_logs(self):
        record = self.run_fixture()
        report = summarize_run(record, W)
        ops = [e.to_dict()["op"] for log in record.change_logs for e in log]
        assert report["counts"] == {
            "splits": ops.count("split"), "joins": ops.count("joined"),
            "donations": ops.count("donated"), "inserted": ops.count("inserted"),
            "removed": ops.count("removed")}
        assert report["transitions"] == len(record.change_logs)

    def test_burden_bounds(self):
        report = summarize_run(self.run_fixture(), W)
        assert 0 < report["burden"] <= 0.5

    def test_empty_log_transitions_contribute_nothing(self):
        record = self.run_fixture()
        report = summarize_run(record, W)
        quiet = RunRecord(config=record.config)
        # keep only the transitions with an empty change log
        for i, log in enumerate(record.change_logs):
            if log == ():
                quiet.states = [record.states[i], record.states[i + 1]]
                quiet.change_logs = [()]
                totals = summarize_run(quiet, W)["totals"]
                assert totals == {"drop": 0, "rise": 0, "moves": 0, "stress": 0.0}

    def test_weights_change_score_not_structure(self):
        record = self.run_fixture()
        a = summarize_run(record, StressWeights(1.0, 0.25, 0.5))
        b = summarize_run(record, StressWeights(2.0, 0.0, 1.0))
        assert a["counts"] == b["counts"]
        assert a["totals"]["drop"] == b["totals"]["drop"]
        assert a["mean_m"] == b["mean_m"]
        if a["totals"]["stress"]:
            assert a["totals"]["stress"] != b["totals"]["stress"]

    def test_choose_strategy_changes_membership_fields_only(self):
        ra = summarize_run(self.run_fixture(choose="balanced"), W)
        rb = summarize_run(self.run_fixture(choose="concentrated"), W)
        # same trace, same schedule: transition count matches, membership-
        # driven fields may differ
        assert ra["transitions"] == rb["transitions"]

    def test_summary_from_serialized_record_matches(self):
        record = self.run_fixture()
        direct = summarize_run(record, W)
        assert direct == summarize_run(fresh_copy(record), W)

    def test_per_worker_task_counts(self, fig1, policy, strategies):
        record = run_rotation(fig1, policy, strategies,
                              TaskSchedule.periodic(1.0, 3), [])
        report = summarize_run(record, W)
        # 4 states, each group current at least once: g1 twice
        assert report["per_worker"]["w1"]["tasks"] == 2
        assert report["per_worker"]["w4"]["tasks"] == 1


def fresh_copy(record: RunRecord) -> RunRecord:
    """``record`` with new ring and member tuples and new worker handles in
    every state, so that no two states share one; only equality tells an
    unchanged group."""
    states = [RotationState(tuple(list(s.ring)),
                            tuple(tuple(WorkerId(w.token, w.seq) for w in ms)
                                  for ms in s.members),
                            s.current, s.step_index)
              for s in record.states]
    return RunRecord(record.config, states, record.change_logs, record.stalls)


weight_sets = st.sampled_from([W, StressWeights(2.0, 0.0, 1.0), StressWeights(0.0, 0.0, 0.0),
                               StressWeights(0.1, 0.3, 0.7)])


def same_json(a: dict, b: dict) -> bool:
    """Equal down to the text of every float, sign of zero included."""
    return json.dumps(a) == json.dumps(b)


def chain(first, *steps):
    """States that follow one another: each step maps ring position to a
    new member tuple (every other position keeps its tuple object) and
    moves ``current`` one position along the same ring object."""
    states = [first]
    for changes in steps:
        prev = states[-1]
        members = list(prev.members)
        for k, tokens in changes.items():
            members[k] = tuple(WorkerId(t, 0) for t in tokens)
        nxt = advance_current(prev)
        states.append(RotationState(nxt.ring, tuple(members), nxt.current, nxt.step_index))
    return RunRecord(states=states, change_logs=[()] * len(steps))


def five_groups():
    # ring A..E, current A; E sits at counter 4 and performs last
    return make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4"]), ("C", ["w5", "w6"]),
                       ("D", ["w7", "w8"]), ("E", ["w9", "w10"])], "A")


def ids(*tokens):
    return tuple(WorkerId(t, 0) for t in tokens)


def split_of_d(c_before, c_after):
    """Ring A..E (current A) to A B C D F E (current B): D splits off F,
    C keeps its place ahead of the split and E is shifted one position
    back.  C's member tuples are given; E keeps one tuple object."""
    e = ids("w9", "w10")
    first = RotationState(("A", "B", "C", "D", "E"),
                          (ids("w1", "w2"), ids("w3", "w4"), c_before, ids("w7", "w8"), e), "A")
    nxt = RotationState(("A", "B", "C", "D", "F", "E"),
                        (ids("w1", "w2"), ids("w3", "w4"), c_after, ids("w7"), ids("w8"), e),
                        "B", 1)
    return RunRecord(states=[first, nxt], change_logs=[(Split("D", "F", ids("w8")),)])


class TestFoldMatchesReference:
    """On a transition that keeps the ring, summarize_run reads only the
    groups whose member tuples changed, on a split or a join it reads
    every group, and it adds only non-zero rows; its reports must match
    ``oracle_report``'s, read off the record's plain dicts."""

    @given(runs(), weight_sets)
    @settings(max_examples=200, deadline=None)
    def test_in_memory_runs(self, record, weights):
        assert same_json(summarize_run(record, weights),
                         oracle_report(record_to_dict(record), weights))

    @given(runs(), weight_sets)
    @settings(max_examples=100, deadline=None)
    def test_loaded_records(self, record, weights):
        # every state is rebuilt with fresh tuples, as a record read back would be
        assert same_json(summarize_run(fresh_copy(record), weights),
                         oracle_report(record_to_dict(record), weights))

    def test_idle_stretch_of_a_long_run(self):
        record = TestSummarize().run_fixture(count=120)
        assert sum(log == () for log in record.change_logs) > 20
        assert same_json(summarize_run(record, W), oracle_report(record_to_dict(record), W))

    def test_empty_log_transition_that_moves_workers_is_not_skipped(self):
        # w4 and w5 trade groups with no change log: the ring is unchanged,
        # the member lists are not
        prev = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4"]),
                           ("C", ["w5", "w6"])], "A")
        nxt = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w5"]),
                          ("C", ["w4", "w6"])], "B")
        record = RunRecord(states=[prev, nxt], change_logs=[()])
        report = summarize_run(record, W)
        assert (report["totals"]["drop"], report["totals"]["rise"]) == (1, 1)
        assert report["per_worker"]["w5"]["drops"] == 1
        assert report["per_worker"]["w4"]["rises"] == 1
        assert same_json(report, oracle_report(record_to_dict(record), W))
        assert same_json(summarize_run(fresh_copy(record), W), report)

    def test_worker_donated_away_and_back(self):
        state, nxt, log = donated_away_and_back()
        record = RunRecord(states=[state, nxt], change_logs=[log])
        assert same_json(summarize_run(record, W), oracle_report(record_to_dict(record), W))

    def test_every_pool_token_gets_a_row(self, fig1, policy, strategies):
        # one idle transition: w4..w9 never perform, yet each has a row
        record = run_rotation(fig1, policy, strategies, TaskSchedule.periodic(1.0, 1), [])
        assert set(summarize_run(record, W)["per_worker"]) == fig1.tokens()

    def test_arrival_in_an_untouched_group_gets_a_row(self):
        # x1 arrives in E, which then stays untouched and never performs:
        # x1 is on both sides of the second transition, so it has a row
        record = chain(five_groups(), {4: ["w9", "w10", "x1"]}, {2: ["w5"]}, {})
        report = summarize_run(record, W)
        assert "x1" in report["per_worker"]
        assert same_json(report, oracle_report(record_to_dict(record), W))

    def test_arrival_that_departs_next_transition_gets_no_row(self):
        record = chain(five_groups(), {4: ["w9", "w10", "x1"]}, {4: ["w9", "w10"]}, {})
        report = summarize_run(record, W)
        assert "x1" not in report["per_worker"]
        assert same_json(report, oracle_report(record_to_dict(record), W))

    @pytest.mark.parametrize("equal", [False, True], ids=["same-tuple", "equal-tuple"])
    def test_unshifted_group_stays_at_zero(self, equal):
        c = ids("w5", "w6")
        record = split_of_d(c, ids("w5", "w6") if equal else c)
        report = summarize_run(record, W)
        assert same_json(report, oracle_report(record_to_dict(record), W))
        assert report["per_worker"]["w5"] == ZERO_ROW

    def test_split_gives_a_shifted_group_one_rise_each(self):
        c = ids("w5", "w6")
        record = split_of_d(c, c)
        report = summarize_run(record, W)
        assert same_json(report, oracle_report(record_to_dict(record), W))
        # E waits one task longer than promised: one rise for each member
        for token in ("w9", "w10"):
            assert report["per_worker"][token] == {"stress": W.beta, "moves": 0, "drops": 0,
                                                   "rises": 1, "tasks": 0}

    def test_join_shifts_the_groups_behind_it(self):
        # ring A..E (current A) to A B D E (current B): B absorbs C, so D
        # and E each move one position forward and drop one counter
        first = five_groups()
        nxt = RotationState(("A", "B", "D", "E"),
                            (first.members[0], ids("w3", "w4", "w5", "w6"), first.members[3],
                             first.members[4]), "B", 1)
        record = RunRecord(states=[first, nxt],
                           change_logs=[(Joined("B", "C", ids("w5", "w6")),)])
        report = summarize_run(record, W)
        assert same_json(report, oracle_report(record_to_dict(record), W))
        for token in ("w7", "w8", "w9", "w10"):
            assert report["per_worker"][token] == {"stress": W.alpha, "moves": 0, "drops": 1,
                                                   "rises": 0, "tasks": 0}

    def test_equal_ring_that_is_another_object(self):
        first = five_groups()
        record = chain(first, {3: ["w7"]}, {3: ["w7", "w8"]})
        # the same ids in a new tuple, and a new but equal tuple for A
        last = record.states[-1]
        record.states[-1] = RotationState(tuple(list(last.ring)),
                                          (tuple(list(last.members[0])),) + last.members[1:],
                                          last.current, last.step_index)
        assert record.states[-1].ring is not first.ring
        assert same_json(summarize_run(record, W), oracle_report(record_to_dict(record), W))


class TestQuartilesAndMeans:
    """The report's quartiles and means, float for float against the
    ``statistics`` functions they replace.  Lengths 2 to 9 take every
    residue of (length - 1) mod 4, so every interpolation weight."""

    @pytest.mark.parametrize("length", range(2, 10))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_match_statistics_bit_for_bit(self, length, data):
        xs = sorted(data.draw(st.lists(st.floats(min_value=0.0, max_value=1e300),
                                       min_size=length, max_size=length)))
        want = statistics.quantiles(xs, n=4, method="inclusive")
        assert repr(_quartiles(xs)) == repr(want)
        assert repr(_mean(xs)) == repr(statistics.fmean(xs))

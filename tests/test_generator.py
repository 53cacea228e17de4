import copy
from math import inf, nan

import pytest

from grtc import (
    OperatorPolicy,
    StallError,
    StrategySet,
    TaskSchedule,
    WorkerEvent,
    build_initial_state,
    next_state,
    record_to_dict,
    run_rotation,
    validate_record,
)
from grtc.errors import ConfigError, InconsistentEvent, OrderError
from grtc.generator import _publish_fault, partition_events
from grtc.state import Workspace, advance_current, check_state, validate_pair

from conftest import afresh, make_state


def ev(t, op, worker):
    return WorkerEvent(t, op, worker)


def move(ws, token, to, stay=False):
    """Move (or with ``stay`` copy) a worker between workspace groups,
    past every operator guard."""
    src = ws.pos[ws.group[token]]
    w = next(x for x in ws.members[src] if x.token == token)
    if not stay:
        ws.set_members(src, tuple(x for x in ws.members[src] if x is not w))
        ws.group[token] = to
    ws.set_members(ws.pos[to], ws.members[ws.pos[to]] + (w,))


class TestSchedule:
    def test_periodic(self):
        s = TaskSchedule.periodic(0.5, 4)
        assert s.times == (0.5, 1.0, 1.5, 2.0)

    def test_explicit_must_increase(self):
        with pytest.raises(ConfigError):
            TaskSchedule.explicit([1.0, 1.0, 2.0])

    def test_positive_times(self):
        with pytest.raises(ConfigError):
            TaskSchedule.explicit([0.0, 1.0])

    @pytest.mark.parametrize("make", [
        lambda: TaskSchedule.explicit([1.0, nan, 3.0]),
        lambda: TaskSchedule.explicit([1.0, inf]),
        lambda: TaskSchedule.periodic(nan, 5),
        lambda: TaskSchedule.periodic(inf, 5),
        lambda: TaskSchedule.periodic(1.0, 5, start=nan),
    ], ids=["time-nan", "time-infinite", "interval-nan", "interval-infinite", "start-nan"])
    def test_finite_times(self, make):
        # every comparison with NaN is false, so no ordering check can catch it
        with pytest.raises(ConfigError, match="task times must be finite"):
            make()


class TestPartitionEvents:
    EVENTS = [ev(0.5, "arrive", "a"), ev(1.0, "arrive", "b"), ev(1.5, "arrive", "c")]

    def test_half_open_window(self):
        got = partition_events(self.EVENTS, 0.5, 1.5)
        assert [e.worker for e in got] == ["b", "c"]

    def test_empty_window(self):
        assert partition_events(self.EVENTS, 2.0, 3.0) == []

    def test_event_at_left_edge_excluded(self):
        got = partition_events(self.EVENTS, 1.0, 2.0)
        assert [e.worker for e in got] == ["c"]

    def test_event_at_right_edge_included(self):
        got = partition_events(self.EVENTS, 0.0, 1.0)
        assert [e.worker for e in got] == ["a", "b"]


class TestBuildInitial:
    def test_round_robin_deal(self):
        policy = OperatorPolicy(d=2)
        state = build_initial_state([f"w{i}" for i in range(1, 10)], policy)
        # dealing oracle: 9 workers over max(2, 9//2)=4 groups
        assert state.m == 4
        assert sorted(len(ms) for ms in state.members) == [2, 2, 2, 3]
        assert state.current == "g1"
        assert [w.token for w in state.members_of("g1")] == ["w1", "w5", "w9"]

    def test_two_workers_degraded(self):
        policy = OperatorPolicy(d=2)
        state = build_initial_state(["w1", "w2"], policy)
        assert state.m == 2
        assert check_state(state).ok
        assert state.n < 2 * policy.d  # degraded: the floor does not bind

    def test_one_worker_stalls(self):
        with pytest.raises(StallError):
            build_initial_state(["w1"], OperatorPolicy(d=2))


class TestNextState:
    def test_empty_batch_is_pure_advance(self, fig1, policy, strategies):
        out, log = next_state(fig1, policy, strategies, [])
        assert log == ()
        assert out == advance_current(fig1)

    def test_single_arrival(self, fig1, policy):
        strat = StrategySet(choose="balanced")
        out, log = next_state(fig1, policy, strat, [ev(1.0, "arrive", "w10")])
        assert "w10" in {w.token for w in out.members_of("g2")}
        assert out.current == "g2"
        assert validate_pair(fig1, out).ok

    def test_draining_batch_repairs_before_advance(self, fig1, policy):
        strat = StrategySet(choose="balanced")
        out, log = next_state(fig1, policy, strat,
                              [ev(1.0, "depart", "w6"), ev(1.0, "depart", "w7")])
        # full-validator oracle over the transition
        assert check_state(out).ok
        assert validate_pair(fig1, out).ok
        assert all(len(out.members_of(g)) >= policy.d for g in out.ring)

    def test_arrivals_take_the_next_sequence_numbers(self, fig1, policy, strategies):
        # two arrivals in one batch: neither may reuse the other's number
        out, log = next_state(fig1, policy, strategies,
                              [ev(1.0, "arrive", "a1"), ev(1.0, "arrive", "a2")])
        seq = {w.token: w.seq for ms in out.members for w in ms}
        assert (seq["a1"], seq["a2"]) == (fig1.next_seq, fig1.next_seq + 1)
        assert out.next_seq == fig1.next_seq + 2

    def test_arrival_of_present_worker(self, fig1, policy, strategies):
        with pytest.raises(InconsistentEvent):
            next_state(fig1, policy, strategies, [ev(1.0, "arrive", "w1")])

    def test_departure_of_absent_worker(self, fig1, policy, strategies):
        with pytest.raises(InconsistentEvent):
            next_state(fig1, policy, strategies, [ev(1.0, "depart", "zz")])

    def test_transient_empty_group_healed_by_arrival(self, policy):
        # both members of one group leave and a newcomer fills the gap
        # inside the same window: the batch still publishes
        state = make_state([("A", ["w1", "w2", "w3"]), ("B", ["w4", "w5"]),
                            ("C", ["w6", "w7"])], "A")
        strat = StrategySet(choose="balanced")
        batch = [ev(0.2, "depart", "w4"), ev(0.3, "depart", "w5"),
                 ev(0.8, "arrive", "w8")]
        out, log = next_state(state, policy, strat, batch)
        assert check_state(out).ok
        assert validate_pair(state, out).ok

    def test_stall_leaves_the_input_indexes_intact(self, fig1, policy):
        strat = StrategySet(choose="balanced")
        state, _ = next_state(fig1, policy, strat, [ev(0.5, "arrive", "w10")])
        assert state.indexes is not None
        before = copy.deepcopy(state.indexes)
        drain = [ev(1.5, "depart", w) for w in sorted(state.tokens() - {"w2"})]
        with pytest.raises(StallError):
            next_state(state, policy, strat, drain)
        assert state.indexes == before
        retry = drain + [ev(1.6, "arrive", f"x{i}") for i in range(3)]
        out, log = next_state(state, policy, strat, retry)
        assert (out, log) == next_state(afresh(state), policy, strat, retry)
        assert out.tokens() == {"w2", "x0", "x1", "x2"}

    @pytest.mark.parametrize("moves, text", [
        ([], None),
        ([("w3", "g2")], "workers ['w3'] of g1 would perform again next, in g2"),
        ([("w4", "g3")], "groups ['g2'] are below the floor d=2"),
        ([("w4", "g3"), ("w5", "g3")], "groups ['g2'] are below the floor d=2"),
        ([("w6", "g2", True)],
         "the groups do not partition the pool into a ring of two or more"),
    ], ids=["valid", "overlap", "floor", "empty", "two-groups"])
    def test_publish_test_reads_the_workspace(self, fig1, policy, moves, text):
        ws = Workspace(fig1)
        for args in moves:
            move(ws, *args)
        assert _publish_fault(ws, policy) == text

    def test_a_failed_publish_test_always_stalls(self, fig1, policy, strategies,
                                                 monkeypatch):
        # a clean one-event batch whose state the full checks accept: once
        # the publish test refuses it, it is not published, and the stall
        # carries the test's message
        import grtc.generator as generator
        monkeypatch.setattr(generator, "_publish_fault", lambda ws, policy: "refused")
        with pytest.raises(StallError) as stall:
            next_state(fig1, policy, strategies, [ev(1.0, "arrive", "w10")])
        assert str(stall.value) == "refused"

    def test_idle_transition_under_a_higher_floor_repairs(self, policy, strategies):
        state = make_state([("A", ["w1"]), ("B", ["w2", "w3", "w4"]), ("C", ["w5", "w6"])],
                           "C")
        carried, _ = next_state(state, OperatorPolicy(d=1), strategies, [])
        assert carried.indexes is not None
        out, log = next_state(carried, policy, strategies, [])
        assert (out, log) == next_state(afresh(carried), policy, strategies, [])
        assert [len(ms) for ms in out.members] == [2, 2, 2]

    def test_step_index_counts_published_transitions(self, fig1, policy, strategies):
        out, _ = next_state(fig1, policy, strategies, [])
        assert out.step_index == fig1.step_index + 1


class TestRunRotation:
    def test_pure_rotation_cycles(self, fig1, policy, strategies):
        schedule = TaskSchedule.periodic(1.0, 3)
        record = run_rotation(fig1, policy, strategies, schedule, [])
        assert len(record.states) == 4
        assert [s.current for s in record.states] == ["g1", "g2", "g3", "g1"]
        assert record.change_logs == [(), (), ()]

    def test_every_pair_follows(self, fig1, policy):
        strat = StrategySet.seeded("random", "pred-first", 3)
        events = [ev(0.5, "arrive", "x1"), ev(1.2, "depart", "w6"),
                  ev(2.4, "arrive", "x2"), ev(2.9, "depart", "w4")]
        record = run_rotation(fig1, policy, strat, TaskSchedule.periodic(1.0, 5),
                              events)
        for a, b in zip(record.states, record.states[1:]):
            assert validate_pair(a, b).ok

    def test_determinism(self, fig1, policy):
        events = [ev(0.5, "arrive", "x1"), ev(1.2, "depart", "w6")]
        schedule = TaskSchedule.periodic(1.0, 5)

        def go():
            strat = StrategySet.seeded("random", "pred-first", 11)
            return record_to_dict(run_rotation(
                fig1, policy, strat, schedule, events, config={"d": 2}))

        assert go() == go()

    def test_mass_departure_stalls_then_resumes(self, policy):
        state = make_state([("A", ["w1"]), ("B", ["w2"])], "A")
        strat = StrategySet(choose="balanced")
        events = [ev(1.5, "depart", "w2"),             # -> n=1, stall at t=2
                  ev(3.5, "arrive", "w3"),             # resume possible at t=4
                  ev(3.6, "arrive", "w4")]
        record = run_rotation(state, policy, strat, TaskSchedule.periodic(1.0, 6),
                              events)
        assert record.stalls == [(2.0, 2.0)]
        # one state per executed task time plus the initial one
        assert len(record.states) == 7 - 2
        resumed = record.states[2]
        assert resumed.tokens() == {"w1", "w3", "w4"}
        for a, b in zip(record.states, record.states[1:]):
            assert validate_pair(a, b).ok
        # the resuming transition records that it consumed a stall backlog
        assert record.change_logs[1][0].to_dict() == {"op": "stalled"}

    def test_record_states_carry_no_indexes(self, fig1, policy, strategies):
        events = [ev(0.5, "arrive", "x1"), ev(1.2, "depart", "w6")]
        record = run_rotation(fig1, policy, strategies, TaskSchedule.periodic(1.0, 4),
                              events)
        assert len(record.states) == 5
        assert all(s.indexes is None for s in record.states)

    def test_stall_until_end_is_recorded(self, policy, strategies):
        state = make_state([("A", ["w1"]), ("B", ["w2"])], "A")
        events = [ev(0.5, "depart", "w1")]
        record = run_rotation(state, policy, strategies,
                              TaskSchedule.periodic(1.0, 3), events)
        assert len(record.states) == 1
        assert record.stalls == [(1.0, 2.0)]
        assert [e.worker for e in record.unconsumed] == ["w1"]

    def test_events_after_schedule_are_unconsumed(self, fig1, policy, strategies):
        events = [ev(9.9, "arrive", "late")]
        record = run_rotation(fig1, policy, strategies,
                              TaskSchedule.periodic(1.0, 2), events)
        assert [e.worker for e in record.unconsumed] == ["late"]
        assert "late" not in record.states[-1].tokens()

    @pytest.mark.parametrize("t", [-1.0, 0.0, nan, inf])
    def test_event_outside_every_window_is_rejected(self, fig1, policy, strategies, t):
        # the first window is (0, t_1]: such an event would be neither
        # applied nor listed as unconsumed
        with pytest.raises(OrderError, match="is not a finite number > 0"):
            run_rotation(fig1, policy, strategies, TaskSchedule.periodic(1.0, 2),
                         [ev(t, "arrive", "x1")])

    def test_windows_match_linear_filter(self, policy, strategies, monkeypatch):
        """Each task's batch is the stall backlog followed by the events in
        (t_prev, t], in trace order; checked against a plain filter."""
        import grtc.generator as generator

        batches, stalled = [], []
        real_next_state = generator.next_state

        def recording_next_state(state, policy, strategies, batch):
            batches.append(list(batch))
            try:
                out = real_next_state(state, policy, strategies, batch)
            except StallError:
                stalled.append(True)
                raise
            stalled.append(False)
            return out

        monkeypatch.setattr(generator, "next_state", recording_next_state)
        state = make_state([("A", ["w1", "w2"]), ("B", ["w3", "w4"])], "A")
        events = [ev(1.0, "depart", "w3"),       # exactly at task 1: in its batch
                  ev(1.0, "depart", "w4"),       # tied, kept in trace order;
                  ev(1.0, "depart", "w2"),       # one worker left: task 1 stalls
                  ev(2.0, "arrive", "x1"),       # task 2: after the backlog
                  ev(2.0, "arrive", "x2"),
                  ev(2.5, "arrive", "x3"),
                  ev(2.5, "depart", "x1"),       # tie whose order matters
                  ev(3.5, "arrive", "x4"),
                  ev(9.0, "arrive", "late")]     # after the last task
        schedule = TaskSchedule.periodic(1.0, 4)
        record = run_rotation(state, policy, strategies, schedule, events)

        expected, backlog, t_prev = [], [], 0.0
        for t, stall in zip(schedule.times, stalled):
            batch = backlog + [e for e in events if t_prev < e.t <= t]
            expected.append(batch)
            backlog = batch if stall else []
            t_prev = t
        assert batches == expected
        assert stalled[:2] == [True, False]  # task 2 takes the backlog
        assert record.unconsumed == backlog + [e for e in events
                                               if e.t > schedule.times[-1]]
        assert "late" not in set().union(*(s.tokens() for s in record.states))

    def test_record_validates(self, fig1, policy):
        strat = StrategySet.seeded("hybrid", "succ-first", 5)
        events = [ev(0.5, "arrive", "x1"), ev(1.9, "depart", "w8"),
                  ev(2.2, "depart", "w9"), ev(3.7, "arrive", "x2")]
        record = run_rotation(fig1, policy, strat, TaskSchedule.periodic(1.0, 5),
                              events, config={"d": policy.d})
        result = validate_record(record_to_dict(record))
        assert result.ok, result.violations

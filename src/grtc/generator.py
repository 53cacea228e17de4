"""Turns an initial state, a task schedule and a worker change stream
into a full rotation: one published state per executed task time, each
following its predecessor.

A batch (all changes since the last task time) is applied worker-at-a-
time, then reconciled, then the current group advances.  If no valid
follow-up state can be built, the rotation stalls: nothing is published,
the pending changes stay queued, and the whole batch is retried at the
next task time together with whatever arrived meanwhile.  Stalls are
recorded as data, never treated as failures.
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf, isfinite
from operator import attrgetter
from typing import NamedTuple

from .errors import ConfigError, InconsistentEvent, InvalidState, OrderError, StallError
from .operators import ChangeLog, OperatorPolicy, Stalled, insert_worker, reconcile, remove_worker
from .state import RotationState, WorkerId, Workspace, advance_current, build_state, check_state
from .strategies import StrategySet
from .traces import WorkerEvent


class _Times(NamedTuple):
    times: tuple[float, ...]


class TaskSchedule(_Times):
    """Strictly increasing, finite task times, explicit or periodic."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # else ``_replace`` skips __init__

    def __init__(self, *_args, **_kwargs):  # ``_Times.__new__`` set the field
        if not self.times:
            raise ConfigError("schedule needs at least one task time")
        if not all(map(isfinite, self.times)):  # NaN would slip past every check below
            raise ConfigError("task times must be finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("task times must be strictly increasing")
        if self.times[0] <= 0:
            raise ConfigError("task times must be positive")

    @classmethod
    def explicit(cls, times) -> "TaskSchedule":
        return cls(tuple(float(t) for t in times))

    @classmethod
    def periodic(cls, interval: float, count: int,
                 start: float | None = None) -> "TaskSchedule":
        if count < 1:
            raise ConfigError("schedule count must be >= 1")
        if interval <= 0:
            raise ConfigError("schedule interval must be positive")
        t0 = interval if start is None else start
        return cls(tuple(t0 + k * interval for k in range(count)))


class RunRecord:
    """Everything one run produced: states, per-transition change logs,
    stall intervals and the config echo.  ``states[0]`` is the initial
    state; ``change_logs[i]`` explains ``states[i] -> states[i+1]``.

    Every state passes ``check_state``, and every state after the first
    follows the one before it (``validate_pair``): ``run_rotation``
    checks the initial state, and ``next_state`` publishes only states
    that pass its publish test, which covers both.  ``summarize_run`` and
    ``dump_record`` rely on it and check neither again.  A state shares
    every member tuple its transition left untouched with the state
    before it (an idle transition shares the whole ``members`` tuple), so
    while the ring stays the same, both read workers only in the groups
    whose members changed.  The states carry no indexes (only
    the run's live state does), so the index maps cost O(n) per run, not
    per state."""

    def __init__(self, config=None, states=None, change_logs=None, stalls=None,
                 unconsumed=None):
        self.config: dict = {} if config is None else config
        self.states: list[RotationState] = [] if states is None else states
        self.change_logs: list[ChangeLog] = [] if change_logs is None else change_logs
        self.stalls: list[tuple[float, float]] = [] if stalls is None else stalls
        self.unconsumed: list[WorkerEvent] = [] if unconsumed is None else unconsumed


def partition_events(events: list[WorkerEvent], t_prev: float,
                     t_i: float) -> list[WorkerEvent]:
    """Events in the half-open window (t_prev, t_i], original order kept.

    ``events`` must be sorted by time (``run_rotation`` checks this): the
    window is found by bisection, in O(log E) plus its length.
    """
    time = attrgetter("t")
    lo = bisect_right(events, t_prev, key=time)
    return events[lo:bisect_right(events, t_i, lo=lo, key=time)]


def build_initial_state(workers: list[WorkerId | str],
                        policy: OperatorPolicy) -> RotationState:
    """Deal the starting roster round-robin into as many groups as the
    floor allows (at least two).  Fewer than two workers cannot form a
    ring at all and raises StallError; fewer than 2d run degraded."""
    roster = [w if isinstance(w, WorkerId) else WorkerId(w, i + 1)
              for i, w in enumerate(workers)]
    n = len(roster)
    if n < 2:
        raise StallError(f"cannot build a ring from {n} worker(s)")
    m = max(2, n // policy.d)
    groups: list[list[WorkerId]] = [[] for _ in range(m)]
    for i, w in enumerate(roster):
        groups[i % m].append(w)
    return build_state([(f"g{k + 1}", ms) for k, ms in enumerate(groups)], current="g1")


def _publish_fault(ws: Workspace, policy: OperatorPolicy) -> str | None:
    """The publish test, read off the workspace: None when the state that
    advancing ``ws.current`` publishes passes every condition of
    ``check_state``, the floor and ``validate_pair`` (so it is valid and
    follows the batch's input state), else the message of the first
    condition that fails.  A pass costs O(1) per distinct group size plus
    the size of the group that performs next; only a failure names groups
    or workers."""
    m, by_size, n = len(ws.ring), ws.by_size, len(ws.group)
    if not (m >= 2 and len(ws.members) == len(ws.pos) == m  # one ring, ids distinct
            and ws.current in ws.pos
            and n == sum(size * len(at) for size, at in by_size.items())):  # none in two groups
        return "the groups do not partition the pool into a ring of two or more"
    floor = policy.floor(n)
    if min(by_size) < floor:  # an empty group is below every floor
        below = sorted(k for size, at in by_size.items() if size < floor for k in at)
        return f"groups {[ws.ring[k] for k in below]} are below the floor d={floor}"
    k = (ws.pos[ws.current] + 1) % m
    tokens = [w.token for w in ws.members[k]]
    if ws.tainted.isdisjoint(tokens):
        return None
    return (f"workers {sorted(ws.tainted.intersection(tokens))} of {ws.current} "
            f"would perform again next, in {ws.ring[k]}")


def next_state(state: RotationState, policy: OperatorPolicy,
               strategies: StrategySet, batch: list[WorkerEvent]
               ) -> tuple[RotationState, ChangeLog]:
    """One transition: apply a batch of arrivals/departures in order,
    reconcile, advance the current group and check the result.

    The batch runs on one ``Workspace`` built from ``state``, and
    ``Workspace.publish`` builds the published state, current group
    advanced, in one construction.  That state carries the workspace's
    indexes, so the next transition copies them instead of rebuilding
    them, and the publish test reads them (``_publish_fault``).  An idle
    transition (an empty batch on a state that carries indexes and needs
    no repair) builds no workspace: the state passed the publish test
    when it was published, and advancing the current group keeps its
    ring and members.  So a transition costs what its batch changes,
    plus C-speed copies of the indexes.

    Raises StallError whenever the publish test fails, with the test's
    own message: the groups below the floor (too few workers remain, or
    a repair was blocked), the workers who would perform again next, or
    a broken partition.  The test alone decides and words a stall, and
    the state is published only once it passes.  ``state`` and its
    indexes are left as they were.
    """
    carried = state.indexes
    if not batch and carried is not None:
        _pos, group, by_size = carried
        if min(by_size) >= policy.floor(len(group)):
            return advance_current(state), ()
    ws = Workspace(state)
    for ev in batch:
        if ev.op == "arrive":
            if ev.worker in ws.group:
                raise InconsistentEvent(f"arrival of present worker {ev.worker}")
            insert_worker(ws, policy, strategies, ev.worker)
        elif ev.op == "depart":
            if ev.worker not in ws.group:
                raise InconsistentEvent(f"departure of absent worker {ev.worker}")
            remove_worker(ws, policy, strategies, ev.worker)
        else:
            raise InconsistentEvent(f"unknown event op {ev.op!r}")
    reconcile(ws, policy, strategies)
    fault = _publish_fault(ws, policy)
    if fault is not None:
        raise StallError(fault)
    return ws.publish(), tuple(ws.log)


def run_rotation(initial: RotationState, policy: OperatorPolicy,
                 strategies: StrategySet, schedule: TaskSchedule,
                 events: list[WorkerEvent],
                 config: dict | None = None) -> RunRecord:
    """Drive the full rotation over the schedule.

    The window for task time t_i is (t_{i-1}, t_i] with t_0 = 0, so an
    event time must be a finite number > 0 (else OrderError).  On a
    stall the window's events stay queued and are retried, merged with
    the next window, until a valid state can be built again.  A task with
    no event due costs one comparison, not ``partition_events``' bisections.
    """
    report = check_state(initial)
    if not report.ok:
        raise InvalidState(report)
    last = 0.0
    for e in events:
        if not 0 < e.t < inf:
            raise OrderError(f"event time {e.t!r} is not a finite number > 0")
        if e.t < last:
            raise OrderError(f"events out of order at t={e.t}")
        last = e.t

    record = RunRecord(config=dict(config or {}))
    record.states.append(initial.without_indexes())

    current = initial
    batch: list[WorkerEvent] = []  # a stalled batch stays queued
    stall_start: float | None = None
    t_prev, due = 0.0, 0  # events[:due] fell in past windows
    for t in schedule.times:
        if due < len(events) and events[due].t <= t:
            window = partition_events(events, t_prev, t)
            due += len(window)
            batch = batch + window
        t_prev = t
        try:
            nxt, log = next_state(current, policy, strategies, batch)
        except StallError:
            if stall_start is None:
                stall_start = t
            continue
        if stall_start is not None:
            record.stalls.append((stall_start, t - stall_start))
            stall_start = None
            log = (Stalled(),) + log
        record.states.append(nxt.without_indexes())  # only ``current`` keeps its maps
        record.change_logs.append(log)
        current = nxt
        batch = []

    if stall_start is not None:
        record.stalls.append((stall_start, schedule.times[-1] - stall_start))
    record.unconsumed = batch + events[due:]
    return record


__all__ = [
    "TaskSchedule", "RunRecord", "partition_events", "build_initial_state",
    "next_state", "run_rotation",
]

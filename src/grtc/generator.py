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
from dataclasses import dataclass, field
from math import inf, isfinite
from operator import attrgetter

from .errors import ConfigError, InconsistentEvent, InvalidState, OrderError, StallError
from .operators import (
    ChangeLog,
    OperatorPolicy,
    Stalled,
    _note_degraded,
    _repair_deficiency,
    insert_worker,
    remove_worker,
)
from .state import (
    RotationState,
    WorkerId,
    Workspace,
    advance_current,
    build_state,
    check_state,
    validate_pair,
)
from .strategies import StrategySet
from .traces import WorkerEvent


@dataclass(frozen=True)
class TaskSchedule:
    """Strictly increasing, finite task times, explicit or periodic."""

    times: tuple[float, ...]

    def __post_init__(self):
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


@dataclass
class RunRecord:
    """Everything one run produced: states, per-transition change logs,
    stall intervals and the config echo.  ``states[0]`` is the initial
    state; ``change_logs[i]`` explains ``states[i] -> states[i+1]``.

    Every state passes ``check_state``, and every state after the first
    follows the one before it (``validate_pair``): ``run_rotation``
    checks the initial state, and ``next_state`` publishes only states
    that pass its publish test, which covers both.  ``summarize_run`` and
    ``dump_record`` rely on it and check neither again.  The states carry
    no indexes (only the run's live state does), so the index maps cost
    O(n) per run, not per state."""

    config: dict = field(default_factory=dict)
    states: list[RotationState] = field(default_factory=list)
    change_logs: list[ChangeLog] = field(default_factory=list)
    stalls: list[tuple[float, float]] = field(default_factory=list)
    unconsumed: list[WorkerEvent] = field(default_factory=list)


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


def _settled(smallest: int, n: int, d: int) -> bool:
    """Nothing for ``_reconcile`` to repair: no group is below the floor,
    or the pool is degraded (n < 2d) and no group is empty."""
    return smallest >= d or (smallest > 0 and n < 2 * d)


def _reconcile(ws: Workspace, policy: OperatorPolicy,
               strategies: StrategySet) -> None:
    """Batch-end repair pass.

    Fixes what per-event repairs could not: transiently emptied groups,
    deficiencies whose repair was blocked mid-batch, and groups left
    below the floor although the pool has grown back to n >= 2d
    (leaving degraded mode).  Donations and joins here follow the same
    rules as the per-event repairs; what cannot be repaired is left for
    the publish-time checks to turn into a stall.
    """
    if _settled(min(ws.by_size), ws.n, policy.d):
        return  # the overwhelmingly common case

    hopeless: set[str] = set()

    def targets() -> list[str]:
        m, cur = ws.m, ws.pos[ws.current]
        order = [(ws.ring[(cur + k) % m], len(ws.members[(cur + k) % m]))
                 for k in range(m)]
        empty = [g for g, size in order if size == 0]
        if empty:
            return [g for g in empty if g not in hopeless]
        if ws.n >= 2 * policy.d:
            return [g for g, size in order if size < policy.d and g not in hopeless]
        return []

    while True:
        todo = targets()
        if not todo:
            break
        g = todo[0]
        outcome = _repair_deficiency(ws, policy, strategies, g)
        if outcome == "blocked":
            hopeless.add(g)
        elif outcome == "degraded" and ws.members_of(g):
            if ws.n < 2 * policy.d:
                _note_degraded(ws, g)
            else:
                hopeless.add(g)


def _publishable(ws: Workspace, policy: OperatorPolicy) -> bool:
    """The publish test, read off the workspace: every condition of
    ``check_state``, the floor and ``validate_pair`` for the state that
    advancing ``ws.current`` publishes.  It costs O(1) per distinct group
    size plus the size of the group that performs next.  A state that
    passes is valid and follows the batch's input state."""
    m, by_size = len(ws.ring), ws.by_size
    if not (m >= 2 and len(ws.members) == len(ws.pos) == m  # one ring, ids distinct
            and ws.current in ws.pos and 0 not in by_size):
        return False
    n = len(ws.group)
    if n != sum(size * len(at) for size, at in by_size.items()):
        return False  # a worker is in two groups
    if n >= 2 * policy.d and min(by_size) < policy.d:
        return False
    performs_next = ws.members[(ws.pos[ws.current] + 1) % m]
    return ws.tainted.isdisjoint([w.token for w in performs_next])


def _stall_reason(state: RotationState, published: RotationState,
                  policy: OperatorPolicy) -> None:
    """Raise the StallError that says why ``published`` cannot follow
    ``state``, or return if it can.  These are the full O(n+m) checks, so
    ``next_state`` runs them only when ``_publishable`` failed."""
    report = check_state(published)
    if not report.ok:
        raise StallError(f"no valid state constructible: {report}")
    if published.n >= 2 * policy.d:
        floor_breakers = [g for g, ms in zip(published.ring, published.members)
                          if len(ms) < policy.d]
        if floor_breakers:
            raise StallError(
                f"groups {floor_breakers} cannot reach the floor d={policy.d} "
                "without breaking the rotation constraints")
    pair = validate_pair(state, published)
    if not pair.ok:
        raise StallError(f"candidate state does not follow its predecessor: {pair}")


def next_state(state: RotationState, policy: OperatorPolicy,
               strategies: StrategySet, batch: list[WorkerEvent]
               ) -> tuple[RotationState, ChangeLog]:
    """One transition: apply a batch of arrivals/departures in order,
    reconcile, advance the current group and check the result.

    The batch runs on one ``Workspace`` built from ``state``; the
    published state carries the workspace's indexes, so the next
    transition copies them instead of rebuilding them, and the publish
    test reads them (``_publishable``).  An idle transition (an empty
    batch on a state that carries indexes and needs no repair) builds no
    workspace: the state passed the publish test when it was published,
    and advancing the current group keeps its ring and members.  So a
    transition costs what its batch changes, plus C-speed copies of the
    indexes.

    Raises StallError when the batch cannot end in a valid state that
    follows the input state, e.g. when too few workers remain or the
    only repair would rotate a just-performed worker straight back in.
    ``state`` and its indexes are left as they were.
    """
    carried = state.indexes
    if not batch and carried is not None:
        _pos, group, by_size = carried
        if _settled(min(by_size), len(group), policy.d):
            return advance_current(state), ()
    ws = Workspace(state)
    for ev in batch:
        if ev.op == "arrive":
            if ev.worker in ws.group:
                raise InconsistentEvent(f"arrival of present worker {ev.worker}")
            insert_worker(ws, policy, strategies, WorkerId(ev.worker, ws.next_seq))
        elif ev.op == "depart":
            if ev.worker not in ws.group:
                raise InconsistentEvent(f"departure of absent worker {ev.worker}")
            remove_worker(ws, policy, strategies, ev.worker)
        else:
            raise InconsistentEvent(f"unknown event op {ev.op!r}")
    _reconcile(ws, policy, strategies)
    published = advance_current(ws.freeze())
    if not _publishable(ws, policy):
        _stall_reason(state, published, policy)
    return published, tuple(ws.log)


def run_rotation(initial: RotationState, policy: OperatorPolicy,
                 strategies: StrategySet, schedule: TaskSchedule,
                 events: list[WorkerEvent],
                 config: dict | None = None) -> RunRecord:
    """Drive the full rotation over the schedule.

    The window for task time t_i is (t_{i-1}, t_i] with t_0 = 0, so an
    event time must be a finite number > 0 (else OrderError).  On a
    stall the window's events stay queued and are retried, merged with
    the next window, until a valid state can be built again.
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
    backlog: list[WorkerEvent] = []
    stall_start: float | None = None
    t_prev = 0.0
    for t in schedule.times:
        batch = backlog + partition_events(events, t_prev, t)
        t_prev = t
        try:
            nxt, log = next_state(current, policy, strategies, batch)
        except StallError:
            backlog = batch
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
        backlog = []

    if stall_start is not None:
        record.stalls.append((stall_start, schedule.times[-1] - stall_start))
    record.unconsumed = backlog + partition_events(events, schedule.times[-1], inf)
    return record


__all__ = [
    "TaskSchedule", "RunRecord", "partition_events", "build_initial_state",
    "next_state", "run_rotation",
]

"""Quantifies the two sides of the restructuring tradeoff for one run:
how many groups the rotation kept alive (fewer groups = each worker
performs more often) versus how much restructuring churn the workers
absorbed.

The stress proxy per worker and transition is a weighted sum of three
observable effects: the worker's countdown dropping below what the
previous state promised (their turn arrives early - the canonical
stressor), the countdown rising (their turn is delayed), and being moved
to another group at all.  Workers arriving or departing in a transition
carry no stress for it; the model concerns the workers who stay.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from itertools import compress, count
from operator import is_not
from typing import NamedTuple

from .errors import ConfigError, InvalidPair
from .generator import RunRecord
from .operators import ChangeLog, Donated, Inserted, Joined, Removed, Split
from .state import RotationState, validate_pair


@dataclass(frozen=True)
class StressWeights:
    """Linear stress model weights; all finite and non-negative.

    ``beta`` defaults low: whether a delayed turn stresses anyone is an
    open question, so rises are reported but barely scored by default.
    """

    alpha: float = 1.0   # per unit of counter drop
    beta: float = 0.25   # per unit of counter rise
    gamma: float = 0.5   # per group move

    def __post_init__(self):
        if not all(math.isfinite(x) and x >= 0 for x in (self.alpha, self.beta, self.gamma)):
            raise ConfigError("stress weights must be finite and >= 0")


class WorkerStress(NamedTuple):
    """One worker's experience of one transition."""

    token: str
    expected_counter: int
    actual_counter: int
    drop: int
    rise: int
    moved: bool
    score: float


def transition_stress(prev: RotationState, nxt: RotationState,
                      weights: StressWeights, log: ChangeLog
                      ) -> dict[str, WorkerStress]:
    """Per-worker stress for one published transition: one row per
    worker who stays."""
    pair = validate_pair(prev, nxt)
    if not pair.ok:
        raise InvalidPair(str(pair))
    return _stress_rows(prev, nxt, weights, log)


def _stress_rows(prev: RotationState, nxt: RotationState, weights: StressWeights,
                 log: ChangeLog, positions: list[int] | None = None
                 ) -> dict[str, WorkerStress]:
    """The stress rows of the staying workers, in ring and member order.

    A worker's expected counter is last state's counter minus one, except
    for the group that just performed, which expects to wait a full lap
    of the new ring.  The achieved counter comes from the new state.

    ``positions`` limits both states to those ring positions.  That is
    sound when both states have the same ring and every position left out
    holds equal member tuples on both sides.  By default every position
    of each state is read.
    """
    moved_tokens: set[str] = set()
    for e in log:
        if isinstance(e, (Split, Joined)):
            moved_tokens.update(w.token for w in e.moved)
        elif isinstance(e, Donated):
            moved_tokens.add(e.worker.token)

    # token -> (group, counter) in prev, in one pass over its positions
    prev_cur, prev_m = prev.index_of(prev.current), prev.m
    before_of = {w.token: (prev.ring[k], (k - prev_cur) % prev_m)
                 for k in (range(prev_m) if positions is None else positions)
                 for w in prev.members[k]}
    cur, m = nxt.index_of(nxt.current), nxt.m
    out: dict[str, WorkerStress] = {}
    for k in range(m) if positions is None else positions:
        g, actual = nxt.ring[k], (k - cur) % m
        for w in nxt.members[k]:
            was = before_of.get(w.token)
            if was is None:
                continue  # arrived this transition
            prev_g, before = was
            expected = m - 1 if before == 0 else before - 1
            drop = expected - actual if expected > actual else 0
            rise = actual - expected if actual > expected else 0
            moved = prev_g != g and w.token in moved_tokens
            score = weights.alpha * drop + weights.beta * rise + weights.gamma * moved
            out[w.token] = WorkerStress(w.token, expected, actual,
                                        drop, rise, moved, score)
    return out


def summarize_run(record: RunRecord, weights: StressWeights | None = None) -> dict:
    """The ``report.json`` document of a run record: group counts,
    burden, per-worker and total stress, entry counts and stall time.

    The record is trusted as ``RunRecord`` states it: every state passes
    ``check_state`` and follows the one before it, so no pair is checked
    again here.  A transition that keeps the ring reads only the
    positions whose member tuples changed, in O(m) plus their sizes; a
    split or a join reads every position, in O(n+m).
    """
    weights = weights or StressWeights()

    group_counts = [s.m for s in record.states]
    per_worker: dict[str, dict] = {}

    def slot(token: str) -> dict:
        return per_worker.setdefault(
            token, {"stress": 0.0, "moves": 0, "drops": 0, "rises": 0, "tasks": 0})

    for state in record.states:
        for w in state.members_of(state.current):
            slot(w.token)["tasks"] += 1

    total_drop = total_rise = total_moves = 0
    stress_total = 0.0
    entry_counts: Counter[type] = Counter()
    pool = record.states[0].tokens()  # the tokens of the state before each transition
    fresh = set(pool)                 # the tokens of that state that may lack a slot
    for prev, nxt, log in zip(record.states, record.states[1:], record.change_logs):
        entry_counts.update(map(type, log))
        before, after = prev.members, nxt.members
        if nxt.ring is prev.ring or nxt.ring == prev.ring:
            # The same ring: ``current`` moved one position, so every
            # counter in a group whose member tuple is unchanged fell by
            # one, as promised, and its rows are zero.
            positions = [k for k in compress(count(), map(is_not, before, after))
                         if before[k] != after[k]]
            before = [before[k] for k in positions]
            after = [after[k] for k in positions]
        else:
            positions = None
        gone = {w.token for ms in before for w in ms}
        came = [w.token for ms in after for w in ms]
        pool.difference_update(gone)
        pool.update(came)
        rows = _stress_rows(prev, nxt, weights, log, positions)
        # a token on both sides of a transition gets its slot, stress or not
        for token in fresh:
            if token in pool:
                slot(token)
        fresh = [t for t in came if t not in gone]
        for ws in rows.values():
            if not (ws.drop or ws.rise or ws.moved):
                continue  # a zero row adds 0 and 0.0: nothing changes
            s = slot(ws.token)
            s["stress"] += ws.score
            s["moves"] += int(ws.moved)
            s["drops"] += ws.drop
            s["rises"] += ws.rise
            total_drop += ws.drop
            total_rise += ws.rise
            total_moves += int(ws.moved)
            stress_total += ws.score

    series = sorted(s["stress"] for s in per_worker.values()) or [0.0]
    if len(series) >= 2:
        q1, q2, q3 = statistics.quantiles(series, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = series[0]

    return {
        "group_counts": group_counts,
        "mean_m": statistics.fmean(group_counts),
        "min_m": min(group_counts),
        "max_m": max(group_counts),
        "burden": statistics.fmean(1.0 / m for m in group_counts),  # mean of 1/m
        "per_worker": dict(sorted(per_worker.items())),
        "totals": {"drop": total_drop, "rise": total_rise, "moves": total_moves,
                   "stress": stress_total},
        "stress_quantiles": {"min": series[0], "p25": q1, "p50": q2, "p75": q3,
                             "max": series[-1]},
        "counts": {"splits": entry_counts[Split], "joins": entry_counts[Joined],
                   "donations": entry_counts[Donated], "inserted": entry_counts[Inserted],
                   "removed": entry_counts[Removed]},
        "stall_time": sum(d for _, d in record.stalls),
        "transitions": len(record.change_logs),
    }


__all__ = ["StressWeights", "WorkerStress", "transition_stress", "summarize_run"]

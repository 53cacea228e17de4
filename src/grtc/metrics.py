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
from typing import NamedTuple

from .errors import ConfigError, InvalidPair
from .generator import RunRecord
from .operators import ChangeLog, Donated, Inserted, Joined, Removed, Split
from .state import RotationState, changed_positions, validate_pair


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
    worker who stays, in ring and member order.

    A worker's expected counter is last state's counter minus one, except
    for the group that just performed, which expects to wait a full lap
    of the new ring.  The achieved counter comes from the new state.
    """
    pair = validate_pair(prev, nxt)
    if not pair.ok:
        raise InvalidPair(str(pair))
    moved_tokens = _moved_tokens(log)
    # token -> (group, counter) in prev, in one pass over its positions
    prev_cur, prev_m = prev.index_of(prev.current), prev.m
    before_of = {w.token: (prev.ring[k], (k - prev_cur) % prev_m)
                 for k in range(prev_m) for w in prev.members[k]}
    cur, m = nxt.index_of(nxt.current), nxt.m
    out: dict[str, WorkerStress] = {}
    for k in range(m):
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


def _moved_tokens(log: ChangeLog) -> set[str]:
    """The tokens that a split, a join or a donation moved."""
    moved: set[str] = set()
    for e in log:
        if isinstance(e, (Split, Joined)):
            moved.update(w.token for w in e.moved)
        elif isinstance(e, Donated):
            moved.add(e.worker.token)
    return moved


def _ring_change(prev: RotationState, nxt: RotationState, prev_cur: int, cur: int
                 ) -> tuple[list[int], list[int], dict[int, int]]:
    """What the fold reads of a transition that changes the ring.

    A *block* is a group with the same id and the same member tuple (by
    identity, else by equality) on both sides: its members share one
    expected and one actual counter, and none of them moved.  Returns
    the positions of ``nxt`` to read, in ring order (every group except
    the blocks whose counter moved as promised), the positions of
    ``prev`` that are not blocks (they hold every staying worker of a
    group that is not one), and each block read's expected counter, by
    position.  O(m).
    """
    m, prev_m = nxt.m, prev.m
    at = dict(zip(prev.ring, range(prev_m)))
    reads: list[int] = []
    blocks: dict[int, int] = {}
    kept: set[int] = set()
    for k, (g, ms) in enumerate(zip(nxt.ring, nxt.members)):
        j = at.get(g)
        if j is not None and (ms is prev.members[j] or ms == prev.members[j]):
            kept.add(j)
            counter = (j - prev_cur) % prev_m
            expected = m - 1 if counter == 0 else counter - 1
            if expected == (k - cur) % m:
                continue  # every row of the block is zero
            blocks[k] = expected
        reads.append(k)
    return reads, [j for j in range(prev_m) if j not in kept], blocks


def summarize_run(record: RunRecord, weights: StressWeights | None = None) -> dict:
    """The ``report.json`` document of a run record: group counts,
    burden, per-worker and total stress, entry counts and stall time.

    The record is trusted as ``RunRecord`` states it: every state passes
    ``check_state`` and follows the one before it, so no pair is checked
    again here.  The fold reads a transition group by group.  A group
    with the same id and members on both sides is one block: if its
    counter moved as promised (always so while the ring stays the same)
    it is skipped, and otherwise each member gets the block's one row.
    Workers are read one by one only in the groups whose members
    changed.  Only non-zero rows are added, in the next state's ring and
    member order, so every float sum keeps the order of
    ``transition_stress``'s rows.  A transition that keeps the ring costs
    O(m) in C plus the sizes of the changed groups (nothing for an idle
    one); a split or a join costs O(m) plus the sizes of the changed and
    the shifted groups.
    """
    weights = weights or StressWeights()
    alpha, beta, gamma = weights.alpha, weights.beta, weights.gamma

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
        prev_cur, cur, m = prev.index_of(prev.current), nxt.index_of(nxt.current), nxt.m
        reads = changed_positions(prev, nxt)
        if reads is None:
            reads, before, blocks = _ring_change(prev, nxt, prev_cur, cur)
        else:
            # the same ring: ``current`` moved one position, so every
            # unchanged group's counter fell by one, as promised
            before, blocks = reads, {}
        # token -> (group, counter) in prev, for the groups that are not blocks
        prev_m = prev.m
        before_of = {w.token: (prev.ring[j], (j - prev_cur) % prev_m)
                     for j in before for w in prev.members[j]}
        came = [w.token for k in reads if k not in blocks for w in nxt.members[k]]
        pool.difference_update(before_of)
        pool.update(came)
        # a token on both sides of a transition gets its slot, stress or not
        for token in fresh:
            if token in pool:
                slot(token)
        fresh = [t for t in came if t not in before_of]
        moved_tokens = _moved_tokens(log) if reads else ()
        for k in reads:
            ms, actual = nxt.members[k], (k - cur) % m
            expected = blocks.get(k)
            if expected is not None:  # a block: one row for every member
                drop = expected - actual if expected > actual else 0
                rise = actual - expected if actual > expected else 0
                score = alpha * drop + beta * rise  # no member moved
                for w in ms:
                    s = slot(w.token)
                    s["stress"] += score
                    s["drops"] += drop
                    s["rises"] += rise
                    stress_total += score
                total_drop += drop * len(ms)
                total_rise += rise * len(ms)
                continue
            g = nxt.ring[k]
            for w in ms:
                was = before_of.get(w.token)
                if was is None:
                    continue  # arrived this transition
                prev_g, counter = was
                expected = m - 1 if counter == 0 else counter - 1
                moved = prev_g != g and w.token in moved_tokens
                if expected == actual and not moved:
                    continue  # a zero row adds 0 and 0.0: nothing changes
                drop = expected - actual if expected > actual else 0
                rise = actual - expected if actual > expected else 0
                score = alpha * drop + beta * rise + gamma * moved
                s = slot(w.token)
                s["stress"] += score
                s["moves"] += moved
                s["drops"] += drop
                s["rises"] += rise
                total_drop += drop
                total_rise += rise
                total_moves += moved
                stress_total += score

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

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
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .errors import ConfigError, InvalidPair
from .generator import RunRecord
from .operators import ChangeLog, Donated, Inserted, Joined, Removed, Split
from .state import RotationState, changed_positions, validate_pair


class _Weights(NamedTuple):
    alpha: float = 1.0   # per unit of counter drop
    beta: float = 0.25   # per unit of counter rise
    gamma: float = 0.5   # per group move


class StressWeights(_Weights):
    """Linear stress model weights; all finite and non-negative.

    ``beta`` defaults low: whether a delayed turn stresses anyone is an
    open question, so rises are reported but barely scored by default.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # else ``_replace`` skips __init__

    def __init__(self, *_args, **_kwargs):  # ``_Weights.__new__`` set the fields
        if not all(math.isfinite(x) and x >= 0 for x in self):
            raise ConfigError("stress weights must be finite and >= 0")


def _quartiles(series: list[float]) -> list[float]:
    """CPython 3.11's ``statistics.quantiles(series, n=4, method="inclusive")``,
    float for float, for a sorted series of two or more."""
    n, m = 4, len(series) - 1
    return [(series[j] * (n - delta) + series[j + 1] * delta) / n
            for j, delta in (divmod(i * m, n) for i in range(1, n))]


def _mean(xs: list[float]) -> float:
    """CPython 3.11's ``statistics.fmean(xs)`` for a non-empty list."""
    return math.fsum(xs) / len(xs)


def _moved_tokens(log: ChangeLog) -> set[str]:
    """The tokens that a split, a join or a donation moved."""
    moved: set[str] = set()
    for e in log:
        if isinstance(e, (Split, Joined)):
            moved.update(w.token for w in e.moved)
        elif isinstance(e, Donated):
            moved.add(e.worker.token)
    return moved


def summarize_run(record: RunRecord, weights: StressWeights | None = None) -> dict:
    """The ``report.json`` document of a run record: group counts,
    burden, per-worker and total stress, entry counts and stall time.

    The record is trusted as ``RunRecord`` states it: every state passes
    ``check_state`` and follows the one before it, so no pair is checked
    again here.  A worker on both sides of a transition expects its
    counter to fall by one, or, if its group just performed, to be a
    full lap of the new ring (m - 1); the achieved counter comes from
    the next state.  While the ring stays the same, every unchanged
    group lands on its promised counter, so the fold reads workers only
    in the groups whose members changed (``changed_positions``): O(m) in
    C plus their sizes.  An idle transition ends after the check of the
    tokens that just came, and each state's current position is found
    once.  On a split or a join it reads every group of both states,
    worker by worker.  Only non-zero rows are added, in the next state's
    ring and member order.
    """
    weights = weights or StressWeights()
    alpha, beta, gamma = weights.alpha, weights.beta, weights.gamma

    states = record.states
    group_counts = [s.m for s in states]
    currents = [s.index_of(s.current) for s in states]  # each state's, found once
    per_worker: dict[str, dict] = {}

    def slot(token: str) -> dict:  # the row is built only when missing
        return per_worker.get(token) or per_worker.setdefault(
            token, {"stress": 0.0, "moves": 0, "drops": 0, "rises": 0, "tasks": 0})

    for state, k in zip(states, currents):
        for w in state.members[k]:
            slot(w.token)["tasks"] += 1

    total_drop = total_rise = total_moves = 0
    stress_total = 0.0
    entry_counts = Counter(map(type, chain.from_iterable(record.change_logs)))
    pool = states[0].tokens()  # the tokens of the state before each transition
    fresh = set(pool)          # the tokens of that state that may lack a slot
    for prev, nxt, log, prev_cur, cur in zip(states, states[1:], record.change_logs,
                                             currents, currents[1:]):
        reads = changed_positions(prev, nxt)
        if reads is None:  # a split or a join: every counter may have moved
            reads, before = range(nxt.m), range(prev.m)
        else:
            # the same ring: ``current`` moved one position, so every
            # unchanged group's counter fell by one, as promised
            before = reads
        if reads:
            # token -> (group, counter) in prev, for the groups read
            prev_m = prev.m
            before_of = {w.token: (prev.ring[j], (j - prev_cur) % prev_m)
                         for j in before for w in prev.members[j]}
            came = [w.token for k in reads for w in nxt.members[k]]
            pool.difference_update(before_of)
            pool.update(came)
        # a token on both sides of a transition gets its slot, stress or not
        for token in fresh:
            if token in pool:
                slot(token)
        if not reads:  # an idle transition: no group changed, nobody came
            fresh = ()
            continue
        fresh = [t for t in came if t not in before_of]
        moved_tokens, m = _moved_tokens(log), nxt.m
        for k in reads:
            g, actual = nxt.ring[k], (k - cur) % m
            for w in nxt.members[k]:
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
        q1, q2, q3 = _quartiles(series)
    else:
        q1 = q2 = q3 = series[0]

    return {
        "group_counts": group_counts,
        "mean_m": _mean(group_counts),
        "min_m": min(group_counts),
        "max_m": max(group_counts),
        "burden": _mean([1.0 / m for m in group_counts]),  # mean of 1/m
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


def transition_stress(prev: RotationState, nxt: RotationState,
                      weights: StressWeights, log: ChangeLog) -> dict[str, dict]:
    """The ``per_worker`` rows of ``summarize_run`` for one transition,
    after checking that ``nxt`` follows ``prev``.

    Every worker on both sides has a row (``stress``, ``moves``,
    ``drops``, ``rises``), by token.  ``tasks`` counts turns in the two
    current groups, so an arrival that performs next has a zero row with
    ``tasks`` 1, and a departure from the group that just performed has
    one too.
    """
    pair = validate_pair(prev, nxt)
    if not pair.ok:
        raise InvalidPair(str(pair))
    return summarize_run(RunRecord(states=[prev, nxt], change_logs=[log]), weights)["per_worker"]


__all__ = ["StressWeights", "transition_stress", "summarize_run"]

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

from .errors import InvalidPair
from .generator import RunRecord
from .operators import ChangeLog, Donated, Inserted, Joined, Removed, Split
from .state import RotationState, validate_pair

CSV_COLUMNS = [
    "run_id", "choose", "find_order", "horizon", "d", "max_multiplier", "seed",
    "mean_m", "burden", "total_drop", "total_rise", "total_moves",
    "stress_score", "splits", "joins", "donations", "stall_time", "error",
]


def config_columns(run_id: str, config: dict) -> dict:
    """The CSV columns that identify a run: its id and its config axes."""
    find = config.get("find", {})
    return {
        "run_id": run_id,
        "choose": config.get("choose", ""),
        "find_order": find.get("order", ""),
        "horizon": find.get("horizon", ""),
        "d": config.get("d", ""),
        "max_multiplier": config.get("max_multiplier", ""),
        "seed": config.get("seed", ""),
    }


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
            raise ValueError("stress weights must be finite and >= 0")


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


@dataclass
class RunReport:
    """Aggregated tradeoff metrics for one run."""

    group_counts: list[int]
    mean_m: float
    min_m: int
    max_m: int
    burden: float                      # mean of 1/m over states
    per_worker: dict[str, dict]        # token -> stress/moves/drops/rises/tasks
    total_drop: int
    total_rise: int
    total_moves: int
    stress_score: float
    stress_quantiles: dict[str, float]
    splits: int
    joins: int
    donations: int
    inserted: int
    removed: int
    stall_time: float
    transitions: int

    def to_dict(self) -> dict:
        return {
            "group_counts": self.group_counts,
            "mean_m": self.mean_m,
            "min_m": self.min_m,
            "max_m": self.max_m,
            "burden": self.burden,
            "per_worker": {t: self.per_worker[t] for t in sorted(self.per_worker)},
            "totals": {"drop": self.total_drop, "rise": self.total_rise,
                       "moves": self.total_moves, "stress": self.stress_score},
            "stress_quantiles": self.stress_quantiles,
            "counts": {"splits": self.splits, "joins": self.joins,
                       "donations": self.donations, "inserted": self.inserted,
                       "removed": self.removed},
            "stall_time": self.stall_time,
            "transitions": self.transitions,
        }

    def csv_row(self, run_id: str, config: dict) -> dict:
        return {
            **config_columns(run_id, config),
            "mean_m": repr(self.mean_m),
            "burden": repr(self.burden),
            "total_drop": self.total_drop,
            "total_rise": self.total_rise,
            "total_moves": self.total_moves,
            "stress_score": repr(self.stress_score),
            "splits": self.splits,
            "joins": self.joins,
            "donations": self.donations,
            "stall_time": repr(self.stall_time),
            "error": "",
        }


def summarize_run(record: RunRecord, weights: StressWeights | None = None
                  ) -> RunReport:
    """Deterministic aggregation of a whole run record, every state of
    which passes ``check_state`` (see ``RunRecord``).

    A transition that keeps the ring costs O(m) plus the sizes of the
    groups whose member tuples changed; any other costs O(n+m).
    """
    weights = weights or StressWeights()

    group_counts = [s.m for s in record.states]
    burden = statistics.fmean(1.0 / m for m in group_counts)

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
        if nxt.ring is prev.ring or nxt.ring == prev.ring:
            # The same ring: a state that follows moved ``current`` one
            # position, so every counter in a group whose member tuple is
            # unchanged fell by one, as promised, and its rows are zero.
            # Only the changed positions are read.
            pair = validate_pair(prev, nxt)
            if not pair.ok:
                raise InvalidPair(str(pair))
            before, after = prev.members, nxt.members
            changed = [k for k in compress(count(), map(is_not, before, after))
                       if before[k] != after[k]]
            gone = {w.token for k in changed for w in before[k]}
            came = [w.token for k in changed for w in after[k]]
            pool.difference_update(gone)
            pool.update(came)
            rows = _stress_rows(prev, nxt, weights, log, changed)
            arrivals = [t for t in came if t not in gone]
        else:
            rows = transition_stress(prev, nxt, weights, log)
            pool = nxt.tokens()
            arrivals = pool.difference(rows)
        # a token on both sides of a transition gets its slot, stress or not
        for token in fresh:
            if token in pool:
                slot(token)
        fresh = arrivals
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
    quantiles = {"min": series[0], "p25": q1, "p50": q2, "p75": q3,
                 "max": series[-1]}

    return RunReport(
        group_counts=group_counts,
        mean_m=statistics.fmean(group_counts),
        min_m=min(group_counts),
        max_m=max(group_counts),
        burden=burden,
        per_worker=per_worker,
        total_drop=total_drop,
        total_rise=total_rise,
        total_moves=total_moves,
        stress_score=stress_total,
        stress_quantiles=quantiles,
        splits=entry_counts[Split],
        joins=entry_counts[Joined],
        donations=entry_counts[Donated],
        inserted=entry_counts[Inserted],
        removed=entry_counts[Removed],
        stall_time=sum(d for _, d in record.stalls),
        transitions=len(record.change_logs),
    )


__all__ = [
    "CSV_COLUMNS", "StressWeights", "WorkerStress", "RunReport",
    "transition_stress", "summarize_run",
]

"""Pluggable pieces of the update operators: choose, split, find (join
rules live with the operators since they rewrite the ring).

All variants except ``random`` are pure functions of the state; the
random variant draws from one named, seeded stream owned by the run, so
swapping the seed changes nothing but random-choice decisions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ConfigError, GrtcError
from .state import GroupId, RotationState, WorkerId

CHOOSE_KINDS = ("random", "farthest", "concentrated", "balanced", "hybrid")
FIND_ORDERS = ("pred-first", "succ-first")


@dataclass
class StrategySet:
    """The strategy knobs for one run.  Split (half/half by seniority) and
    join (rule-based survivor selection) have one implementation each."""

    choose: str = "balanced"
    find_order: str = "pred-first"
    rng: random.Random = field(default_factory=random.Random, repr=False, compare=False)

    def __post_init__(self):
        if self.choose not in CHOOSE_KINDS:
            raise ConfigError(f"unknown choose strategy {self.choose!r}; "
                              f"expected one of {CHOOSE_KINDS}")
        if self.find_order not in FIND_ORDERS:
            raise ConfigError(f"unknown find order {self.find_order!r}; "
                              f"expected one of {FIND_ORDERS}")

    @classmethod
    def seeded(cls, choose: str, find_order: str, seed) -> "StrategySet":
        return cls(choose=choose, find_order=find_order,
                   rng=random.Random(f"{seed}:choose"))


def choose_group(state: RotationState, policy, kind: str,
                 rng: random.Random | None = None) -> GroupId:
    """Pick the group that receives an inserted worker.

    random        uniform over ring groups (seeded stream)
    farthest      largest counter, i.e. most tasks away from performing
    concentrated  largest group; ties to the smallest counter
    balanced      smallest group; ties to the largest counter
    hybrid        smallest group at or below the floor d if any
                  (balanced tie-breaks), otherwise farthest
    """
    if kind == "random":
        if rng is None:
            raise GrtcError("random choose strategy needs an rng stream")
        return state.ring[rng.randrange(state.m)]
    ring, m = state.ring, state.m
    cur = state.index_of(state.current)
    if kind == "farthest":
        return ring[cur - 1]  # the predecessor of current has counter m - 1
    # sizes[j] is the size of the group whose counter is j
    sizes = [len(ms) for ms in state.members[cur:] + state.members[:cur]]
    if kind == "concentrated":
        j = sizes.index(max(sizes))  # the first: smallest counter
    elif kind in ("balanced", "hybrid"):
        # some group is at risk iff the smallest one is, so hybrid picks
        # like balanced unless no group is at risk
        smallest = min(sizes)
        if kind == "hybrid" and smallest > policy.d:
            return ring[cur - 1]
        j = m - 1 - sizes[::-1].index(smallest)  # the last: largest counter
    else:
        raise GrtcError(f"unknown choose strategy {kind!r}")
    return ring[(cur + j) % m]


def partition_for_split(members: list[WorkerId] | tuple[WorkerId, ...]
                        ) -> tuple[list[WorkerId], list[WorkerId]]:
    """Halve a seniority-ordered member list: earliest keep, newest move.

    The stay half gets the extra worker on odd sizes.
    """
    if len(members) < 2:
        raise GrtcError(f"cannot split {len(members)} members")
    keep = (len(members) + 1) // 2
    return list(members[:keep]), list(members[keep:])


def find_donor(state: RotationState, deficient: GroupId, order: str,
               min_size: int, tainted: frozenset[str],
               protected: GroupId) -> GroupId | None:
    """Nearest-first alternating ring scan for a group that can spare a worker.

    Starting next to the deficient group and widening outward (predecessor
    then successor per hop for ``pred-first``, the reverse for
    ``succ-first``), return the first group of size at least ``min_size``
    (d+1 keeps the donor at the floor).  A candidate whose newest member
    is in ``tainted`` (performed in the previous published state) is
    skipped when the deficient group is ``protected``, the one performing
    next: donating there would make that worker perform twice in a row.
    Returns None when no group on the ring qualifies.
    """
    i = state.index_of(deficient)
    m = state.m
    seen: set[int] = {i}
    first, second = (-1, +1) if order == "pred-first" else (+1, -1)
    for hop in range(1, m):
        for direction in (first, second):
            j = (i + direction * hop) % m
            if j in seen:
                continue
            seen.add(j)
            ms = state.members[j]
            if len(ms) < min_size:
                continue
            if deficient == protected and max(ms, key=lambda w: w.seq).token in tainted:
                continue
            return state.ring[j]
    return None

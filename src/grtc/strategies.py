"""Pluggable pieces of the update operators: choose and find (split and
join rules live with the operators since they rewrite the ring).

Choose and find read a ``Workspace``.  All variants except ``random``
are pure functions of it; the random variant draws from one named,
seeded stream owned by the run, so swapping the seed changes nothing
but random-choice decisions.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right

from .errors import ConfigError, GrtcError
from .state import GroupId, Workspace, seniority

CHOOSE_KINDS = ("random", "farthest", "concentrated", "balanced", "hybrid")
FIND_ORDERS = ("pred-first", "succ-first")


class StrategySet:
    """The strategy knobs for one run.  Split (half/half by seniority) and
    join (rule-based survivor selection) have one implementation each."""

    __slots__ = ("choose", "find_order", "rng")

    def __init__(self, choose: str = "balanced", find_order: str = "pred-first",
                 rng: random.Random | None = None):
        if choose not in CHOOSE_KINDS:
            raise ConfigError(f"unknown choose strategy {choose!r}; "
                              f"expected one of {CHOOSE_KINDS}")
        if find_order not in FIND_ORDERS:
            raise ConfigError(f"unknown find order {find_order!r}; "
                              f"expected one of {FIND_ORDERS}")
        self.choose, self.find_order = choose, find_order
        # the seed-0 stream of ``seeded``, so a default set is deterministic too
        self.rng = random.Random("0:choose") if rng is None else rng

    @classmethod
    def seeded(cls, choose: str, find_order: str, seed) -> "StrategySet":
        return cls(choose=choose, find_order=find_order,
                   rng=random.Random(f"{seed}:choose"))


def choose_group(ws: Workspace, policy, kind: str,
                 rng: random.Random | None = None) -> GroupId:
    """Pick the group that receives an inserted worker.

    random        uniform over ring groups (seeded stream)
    farthest      largest counter, i.e. most tasks away from performing
    concentrated  largest group; ties to the smallest counter
    balanced      smallest group; ties to the largest counter
    hybrid        smallest group at or below the floor d if any
                  (balanced tie-breaks), otherwise farthest

    A group's counter grows with its ring position from the current
    group's position ``cur`` to the end of the ring, then on from the
    start of the ring up to ``cur``.  So within one size class (the
    sorted positions ``ws.by_size[size]``) the smallest counter is the
    first position at or after ``cur``, and the largest the last one
    before it; one bisection finds either.
    """
    if kind == "random":
        if rng is None:
            raise GrtcError("random choose strategy needs an rng stream")
        return ws.ring[rng.randrange(ws.m)]
    ring, by_size = ws.ring, ws.by_size
    cur = ws.index_of(ws.current)
    if kind == "farthest":
        return ring[cur - 1]  # the predecessor of current has counter m - 1
    if kind == "concentrated":
        at = by_size[max(by_size)]
        k = bisect_left(at, cur)
        return ring[at[k] if k < len(at) else at[0]]
    if kind in ("balanced", "hybrid"):
        # some group is at risk iff the smallest one is, so hybrid picks
        # like balanced unless no group is at risk
        smallest = min(by_size)
        if kind == "hybrid" and smallest > policy.d:
            return ring[cur - 1]
        at = by_size[smallest]
        return ring[at[bisect_left(at, cur) - 1]]  # index -1 wraps to the last
    raise GrtcError(f"unknown choose strategy {kind!r}")


def find_donor(ws: Workspace, deficient: GroupId, order: str,
               min_size: int) -> GroupId | None:
    """The nearest group on the ring that can spare a worker.

    Scanning outward from the deficient group, predecessor then
    successor per hop for ``pred-first`` (the reverse for
    ``succ-first``), return the first group of size at least
    ``min_size`` (d+1 keeps the donor at the floor).  A candidate whose
    newest member just performed (is in ``ws.tainted``) is skipped when
    the deficient group is ``ws.protected``, the one performing next:
    donating there would make that worker perform twice in a row.
    Returns None when no group on the ring qualifies.

    Unguarded, the first group that scan meets is the nearer of two: the
    nearest candidate on the predecessor side and the nearest on the
    successor side, the ``order`` side on equal hops.  In each size class
    at or above ``min_size`` one bisection of its sorted positions finds
    its nearest on either side.  The guarded case walks the ring.
    """
    i = ws.index_of(deficient)
    m = ws.m
    pred_first = order == "pred-first"
    if deficient == ws.protected:
        return _walk_donor(ws, i, (-1, +1) if pred_first else (+1, -1), min_size)
    pred_rank, succ_rank = (0, 1) if pred_first else (1, 0)
    nearest = []  # (hops, 0 for the order's first side, ring position)
    for size, at in ws.by_size.items():
        if size < min_size or at == [i]:
            continue
        p = at[bisect_left(at, i) - 1]  # the last before i, wrapping to the last
        k = bisect_right(at, i)
        s = at[k] if k < len(at) else at[0]  # the first after i, wrapping
        nearest += [((i - p) % m, pred_rank, p), ((s - i) % m, succ_rank, s)]
    return ws.ring[min(nearest)[2]] if nearest else None


def _walk_donor(ws: Workspace, i: int, directions: tuple[int, int],
                min_size: int) -> GroupId | None:
    """``find_donor``'s scan, hop by hop, with the just-performed guard."""
    m = ws.m
    seen: set[int] = {i}
    for hop in range(1, m):
        for direction in directions:
            j = (i + direction * hop) % m
            if j in seen:
                continue
            seen.add(j)
            ms = ws.members[j]
            if len(ms) < min_size:
                continue
            if max(ms, key=seniority).token in ws.tainted:
                continue
            return ws.ring[j]
    return None

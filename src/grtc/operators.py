"""Worker-at-a-time update operators and the structural primitives they
compose: insert (choose a group, split when it grows past the cap) and
remove (refill a shrunken group from a donor, else merge it away).

Every operator preserves compatibility with the pre-transition current
group: that group always survives, and none of its pre-transition
members may end up in the group that performs next.  Inside a batch the
guard is tracked per worker (the "tainted" set) because members of the
current group can be relocated by splits and would otherwise slip
through a purely group-based rule.

Operators change a ``Workspace`` in place and append what they did to
its change log, ``ws.log``.  An operator that refuses raises before it
touches either.  The log replays: applying its entries to the state the
workspace held before reproduces the state it holds after exactly (see
``recordcheck.replay_entries``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BelowThreshold, ConfigError, DonorTooSmall, ForbiddenMove, TooFewGroups
from .state import GroupId, WorkerId, Workspace
from .strategies import StrategySet, choose_group, find_donor


@dataclass(frozen=True)
class OperatorPolicy:
    """Numeric policy: group-size floor d and split cap max(d).

    The split cap is ``max_multiplier * d``; the multiplier must be at
    least 2 so both halves of a split stay at or above the floor.
    """

    d: int = 2
    max_multiplier: int = 2

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.max_multiplier < 2:
            raise ConfigError("max_multiplier must be >= 2")

    @property
    def max_size(self) -> int:
        return self.max_multiplier * self.d


# -- change log entries -------------------------------------------------

@dataclass(frozen=True)
class Inserted:
    worker: WorkerId
    group: GroupId

    def to_dict(self):
        return {"op": "inserted", "worker": self.worker.token, "group": self.group}


@dataclass(frozen=True)
class Removed:
    worker: WorkerId
    group: GroupId

    def to_dict(self):
        return {"op": "removed", "worker": self.worker.token, "group": self.group}


@dataclass(frozen=True)
class Split:
    group: GroupId
    new_group: GroupId
    moved: tuple[WorkerId, ...]

    def to_dict(self):
        return {"op": "split", "group": self.group, "new_group": self.new_group,
                "moved": [w.token for w in self.moved]}


@dataclass(frozen=True)
class Joined:
    survivor: GroupId
    absorbed: GroupId
    moved: tuple[WorkerId, ...]

    def to_dict(self):
        return {"op": "joined", "survivor": self.survivor, "absorbed": self.absorbed,
                "moved": [w.token for w in self.moved]}


@dataclass(frozen=True)
class Donated:
    worker: WorkerId
    from_group: GroupId
    to_group: GroupId

    def to_dict(self):
        return {"op": "donated", "worker": self.worker.token,
                "from": self.from_group, "to": self.to_group}


@dataclass(frozen=True)
class DegradedEntered:
    group: GroupId

    def to_dict(self):
        return {"op": "degraded", "group": self.group}


@dataclass(frozen=True)
class Stalled:
    def to_dict(self):
        return {"op": "stalled"}


Entry = Inserted | Removed | Split | Joined | Donated | DegradedEntered | Stalled
ChangeLog = tuple[Entry, ...]


def _fresh_group_id(ws: Workspace) -> GroupId:
    k = 1
    while f"g{k}" in ws.used_group_ids:
        k += 1
    return f"g{k}"


# -- structural primitives ----------------------------------------------

def split_group(ws: Workspace, policy: OperatorPolicy, g: GroupId) -> None:
    """Split an oversized group in two.

    The group keeps its most senior half (smallest sequence numbers, and
    the extra worker on odd sizes); a fresh group takes the newest half.
    The fresh group lands just after the split group, except when
    splitting the current group, where it lands just before it: the one
    spot near the current group where the moved workers cannot end up
    performing next.
    """
    i = ws.index_of(g)
    ms = ws.members[i]
    if len(ms) <= policy.max_size:
        raise BelowThreshold(
            f"group {g} has {len(ms)} members, split needs > {policy.max_size}")
    moved = tuple(sorted(ms, key=lambda w: w.seq)[(len(ms) + 1) // 2:])  # by seniority
    moving = frozenset(w.token for w in moved)

    fresh = _fresh_group_id(ws)
    at = i if g == ws.current else i + 1  # just before current, else after g
    ws.members[i] = tuple(w for w in ms if w.token not in moving)
    ws.members.insert(at, moved)
    ws.ring = ws.ring[:at] + (fresh,) + ws.ring[at:]
    ws.used_group_ids = ws.used_group_ids | {fresh}
    for w in moved:
        ws.group[w.token] = fresh
    ws.reindex()
    ws.log.append(Split(g, fresh, moved))


def join_groups(ws: Workspace, g_deficient: GroupId) -> None:
    """Merge a shrunken group with a neighbour.

    Survivor selection keeps the current group alive in every case:
    a deficient current group absorbs its predecessor; a deficient
    predecessor of the current group is absorbed by the current group;
    any other deficient group absorbs its own successor.  The survivor
    keeps its id and ring position; the absorbed id is retired.
    """
    if ws.m <= 2:
        raise TooFewGroups("cannot join with only two groups left")
    if g_deficient == ws.current:
        survivor, absorbed = ws.current, ws.predecessor(ws.current)
    elif ws.successor(g_deficient) == ws.current:
        survivor, absorbed = ws.current, g_deficient
    else:
        survivor, absorbed = g_deficient, ws.successor(g_deficient)

    moved = ws.members_of(absorbed)
    if survivor == ws.protected and any(w.token in ws.tainted for w in moved):
        raise ForbiddenMove(
            f"join would move just-performed workers into {survivor}, "
            "the group performing next")

    i_sur = ws.pos[survivor]
    ws.members[i_sur] += moved
    i_abs = ws.pos[absorbed]
    del ws.members[i_abs]
    ws.ring = ws.ring[:i_abs] + ws.ring[i_abs + 1:]
    for w in moved:
        ws.group[w.token] = survivor
    ws.reindex()
    ws.log.append(Joined(survivor, absorbed, moved))


def donate_worker(ws: Workspace, policy: OperatorPolicy,
                  from_group: GroupId, to_group: GroupId,
                  min_size: int | None = None) -> None:
    """Move the newest member of ``from_group`` into ``to_group``.

    The donor must keep at least d members afterwards.  Moving a worker
    out of the current group into its successor is forbidden: that
    worker just performed and would perform again immediately.  (The
    check is per worker, so a batch may donate a worker who arrived
    after the last published state even out of the current group.)
    """
    i = ws.index_of(from_group)
    src = ws.members[i]
    floor = policy.d + 1 if min_size is None else min_size
    if len(src) < floor:
        raise DonorTooSmall(
            f"group {from_group} has {len(src)} members, needs >= {floor} to donate")
    w = max(src, key=lambda x: x.seq)
    if to_group == ws.protected and w.token in ws.tainted:
        raise ForbiddenMove(
            f"worker {w.token} just performed; cannot move into {to_group}, "
            "the group performing next")
    ws.set_members(i, tuple(x for x in src if x != w))
    j = ws.index_of(to_group)
    ws.set_members(j, ws.members[j] + (w,))
    ws.group[w.token] = to_group
    ws.log.append(Donated(w, from_group, to_group))


# -- deficiency repair ----------------------------------------------------

def _repair_deficiency(ws: Workspace, policy: OperatorPolicy,
                       strategies: StrategySet, g: GroupId) -> str:
    """One repair attempt for a group that fell below the floor.

    Preference order: donation from the nearest group on the ring that
    can spare a worker, then a join, then (for emptied groups with only
    two groups left) an emergency donation that may push the donor below
    the floor.
    Returns the outcome: "repaired", "degraded" (left below floor, legal
    because n < 2d) or "blocked" (nothing legal; caller stalls or
    defers).  Only a repair changes ``ws``.
    """
    donor = find_donor(ws, g, strategies.find_order, policy.d + 1)
    if donor is not None:
        donate_worker(ws, policy, donor, g)
        return "repaired"

    if ws.m >= 3:
        try:
            join_groups(ws, g)
            return "repaired"
        except ForbiddenMove:
            pass

    if not ws.members_of(g):
        # an empty group cannot be published; allow a donor to dip below
        # the floor as long as it keeps one worker
        donor = find_donor(ws, g, strategies.find_order, 2)
        if donor is not None:
            donate_worker(ws, policy, donor, g, min_size=2)
            return "repaired" if len(ws.members_of(g)) >= policy.d else "degraded"
        return "blocked"

    if ws.n < 2 * policy.d:
        return "degraded"
    return "blocked"


def _note_degraded(ws: Workspace, g: GroupId) -> None:
    if g not in ws.degraded:
        ws.degraded.add(g)
        ws.log.append(DegradedEntered(g))


# -- the two operators -----------------------------------------------------
# Both are steps of a ``generator.next_state`` batch, which checks each
# event first and stalls on whatever they leave broken.

def insert_worker(ws: Workspace, policy: OperatorPolicy,
                  strategies: StrategySet, w: WorkerId) -> None:
    """Place an arriving worker, splitting the target group if it overflows.

    ``w`` must not be in the pool yet.
    """
    g = choose_group(ws, policy, strategies.choose, strategies.rng)
    i = ws.pos[g]
    ws.set_members(i, ws.members[i] + (w,))
    ws.group[w.token] = g
    ws.next_seq = max(ws.next_seq, w.seq + 1)
    ws.log.append(Inserted(w, g))
    if len(ws.members[i]) > policy.max_size:
        split_group(ws, policy, g)


def remove_worker(ws: Workspace, policy: OperatorPolicy,
                  strategies: StrategySet, token: str) -> None:
    """Remove a departing worker and repair the floor if its group broke it.

    A group that cannot be repaired is left as it is for the batch-end
    reconciliation.
    """
    g = ws.group_of(token)  # raises UnknownWorker
    i = ws.pos[g]
    ms = ws.members[i]
    worker = next(x for x in ms if x.token == token)
    ws.set_members(i, tuple(x for x in ms if x.token != token))
    del ws.group[token]
    ws.log.append(Removed(worker, g))

    if len(ws.members[i]) < policy.d:
        if _repair_deficiency(ws, policy, strategies, g) == "degraded":
            _note_degraded(ws, g)

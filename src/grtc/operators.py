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

from typing import NamedTuple

from .errors import ConfigError, ForbiddenMove
from .state import GroupId, WorkerId, Workspace, seniority
from .strategies import StrategySet, choose_group, find_donor


class OperatorPolicy:
    """Numeric policy: group-size floor d and split cap max(d).

    The split cap is ``max_multiplier * d``; the multiplier must be at
    least 2 so both halves of a split stay at or above the floor.  A
    value: immutable, and equal, hashed and pickled by its two numbers.
    """

    __slots__ = ("d", "max_multiplier")

    def __init__(self, d: int = 2, max_multiplier: int = 2):
        if d < 1:
            raise ConfigError("d must be >= 1")
        if max_multiplier < 2:
            raise ConfigError("max_multiplier must be >= 2")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "max_multiplier", max_multiplier)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of OperatorPolicy is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not OperatorPolicy:
            return NotImplemented
        return (self.d, self.max_multiplier) == (other.d, other.max_multiplier)

    def __hash__(self):
        return hash((self.d, self.max_multiplier))

    def __repr__(self) -> str:
        return f"OperatorPolicy(d={self.d!r}, max_multiplier={self.max_multiplier!r})"

    def __reduce__(self):
        return OperatorPolicy, (self.d, self.max_multiplier)

    @property
    def max_size(self) -> int:
        return self.max_multiplier * self.d

    def floor(self, n: int) -> int:
        """The least size a group may have in a pool of ``n`` workers: d,
        or 1 while the pool is too small for two groups of d (degraded
        mode, n < 2d)."""
        return self.d if n >= 2 * self.d else 1


# -- change log entries -------------------------------------------------
# Tuples, so building one costs what a tuple does.


def _same_kind(compare):
    """``compare`` for two entries of one kind; other pairs compare by identity."""
    return lambda a, b: compare(a, b) if type(b) is type(a) else NotImplemented


def _entry(cls):
    """Make an entry type equal only to entries of its own kind: as bare
    tuples, ``Inserted(w, g)`` would equal ``Removed(w, g)``."""
    cls.__eq__, cls.__ne__ = _same_kind(tuple.__eq__), _same_kind(tuple.__ne__)
    return cls


@_entry
class Inserted(NamedTuple):
    worker: WorkerId
    group: GroupId

    def to_dict(self):
        return {"op": "inserted", "worker": self.worker.token, "group": self.group}


@_entry
class Removed(NamedTuple):
    worker: WorkerId
    group: GroupId

    def to_dict(self):
        return {"op": "removed", "worker": self.worker.token, "group": self.group}


@_entry
class Split(NamedTuple):
    group: GroupId
    new_group: GroupId
    moved: tuple[WorkerId, ...]

    def to_dict(self):
        return {"op": "split", "group": self.group, "new_group": self.new_group,
                "moved": [w.token for w in self.moved]}


@_entry
class Joined(NamedTuple):
    survivor: GroupId
    absorbed: GroupId
    moved: tuple[WorkerId, ...]

    def to_dict(self):
        return {"op": "joined", "survivor": self.survivor, "absorbed": self.absorbed,
                "moved": [w.token for w in self.moved]}


@_entry
class Donated(NamedTuple):
    worker: WorkerId
    from_group: GroupId
    to_group: GroupId

    def to_dict(self):
        return {"op": "donated", "worker": self.worker.token,
                "from": self.from_group, "to": self.to_group}


@_entry
class DegradedEntered(NamedTuple):
    group: GroupId

    def to_dict(self):
        return {"op": "degraded", "group": self.group}


@_entry
class Stalled(NamedTuple):
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

def split_group(ws: Workspace, g: GroupId) -> None:
    """Split a group in two; ``insert_worker`` calls it only on a group
    grown past ``policy.max_size``, so both halves keep the floor.

    The group keeps its most senior half (smallest sequence numbers, and
    the extra worker on odd sizes); a fresh group takes the newest half.
    The fresh group lands just after the split group, except when
    splitting the current group, where it lands just before it: the one
    spot near the current group where the moved workers cannot end up
    performing next.
    """
    i = ws.index_of(g)
    ms = ws.members[i]
    moved = tuple(sorted(ms, key=seniority)[(len(ms) + 1) // 2:])
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
    """Merge a shrunken group with a neighbour.  ``_repair_deficiency``
    joins only while at least three groups are left, so two remain.

    Survivor selection keeps the current group alive in every case:
    a deficient current group absorbs its predecessor; a deficient
    predecessor of the current group is absorbed by the current group;
    any other deficient group absorbs its own successor.  The survivor
    keeps its id and ring position; the absorbed id is retired.

    Raises ForbiddenMove, before it changes anything, when the survivor
    performs next and the absorbed group holds a worker who just
    performed.
    """
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


def donate_worker(ws: Workspace, from_group: GroupId, to_group: GroupId) -> None:
    """Move the newest member of ``from_group`` into ``to_group``.

    The caller picks the donor with ``find_donor``, which makes both of
    the move's guarantees.  The least donor size it is given bounds how
    small the donor may become: d+1 keeps it at the floor, and the
    emergency donation's 2 leaves it one worker.  Its guarded walk skips
    a donor whose newest worker just performed when ``to_group``
    performs next, so no worker performs twice in a row.  (The guard is
    per worker, so a worker who arrived in this batch may be donated
    even out of the current group.)
    """
    i = ws.index_of(from_group)
    src = ws.members[i]
    w = max(src, key=seniority)
    k = src.index(w)
    ws.set_members(i, src[:k] + src[k + 1:])
    j = ws.index_of(to_group)
    ws.set_members(j, ws.members[j] + (w,))
    ws.group[w.token] = to_group
    ws.log.append(Donated(w, from_group, to_group))


# -- deficiency repair ----------------------------------------------------

def _repair_deficiency(ws: Workspace, policy: OperatorPolicy,
                       strategies: StrategySet, g: GroupId) -> bool:
    """One repair attempt for a group that fell below the floor; returns
    whether a donation or a join repaired it.

    Preference order: donation from the nearest group on the ring that
    can spare a worker, then a join, then (for an emptied group that
    neither could fill) an emergency donation that may push the donor
    below the floor.  That donation leaves the group one worker, below d
    (for d = 1 it repeats the first search and finds no donor).  The group
    it fills, or a non-empty group left unrepaired that meets
    ``policy.floor``, is noted degraded.  Only donations and joins move
    workers.
    """
    donor = find_donor(ws, g, strategies.find_order, policy.d + 1)
    if donor is not None:
        donate_worker(ws, donor, g)
        return True

    if ws.m >= 3:
        try:
            join_groups(ws, g)
            return True
        except ForbiddenMove:
            pass

    if not ws.members_of(g):
        # an empty group cannot be published; allow a donor to dip below
        # the floor as long as it keeps one worker
        donor = find_donor(ws, g, strategies.find_order, 2)
        if donor is None:
            return False
        donate_worker(ws, donor, g)
    elif len(ws.members_of(g)) < policy.floor(ws.n):
        return False
    if g not in ws.degraded:
        ws.degraded.add(g)
        ws.log.append(DegradedEntered(g))
    return False


def reconcile(ws: Workspace, policy: OperatorPolicy, strategies: StrategySet) -> None:
    """The batch-end repair pass, one rule: repair the group below the
    floor that is nearest the current group in ring order, an empty group
    first, until none is left.  An attempt that leaves its group below
    the floor unrepaired ends the pass, and the publish test stalls the
    batch.

    It fixes emptied groups, blocked repairs and groups below d once the
    pool is back to n >= 2d.  It only moves workers, so the floor is
    fixed.  Stopping gives the verdict that skipping the group and going
    on would: a donation grows only the group repaired, and a join only
    that group or the current group.  An unrepaired group had its join
    refused, so it performs next, or two groups are left and no join
    happens; no join absorbs the group performing next.  So it would
    stay below the floor.

    Empty groups first, and the stop after an emergency donation that
    leaves its group below the floor, each change outcomes, and
    ``TestReconcile`` pins both.  The stall discards that donation's
    ``DegradedEntered``; going on, a later repair could publish it at
    n >= 2d.  In ``remove_worker`` no stall follows: later events and this
    pass may still repair the group, and the published log keeps the
    note.  That is the ``DegradedEntered`` defect (ROADMAP, "Settled").

    Bounded: the deficit below the floor, at most m·d at entry, never
    grows.  A join or a donation from a donor above d lowers it by one or
    more; an emergency donation lowers it by one for its group and raises
    it by at most one for its donor, and fills one of at most m groups
    empty at entry (no step empties one).  With the stop, m·(d+2)
    attempts suffice.  Going past them is a bug (say, ``find_donor``'s
    donor size), raised as a ``RuntimeError``, not a stall.
    """
    floor = policy.floor(ws.n)
    if min(ws.by_size) >= floor:
        return  # the overwhelmingly common case
    bound, attempts = ws.m * (policy.d + 2), 0
    while True:
        by_size, ring = ws.by_size, ws.ring  # read off by_size, not a ring walk
        sizes = [0] if 0 in by_size else [size for size in by_size if size < floor]
        if not sizes:
            return
        cur, m = ws.pos[ws.current], len(ring)
        ahead = min((k - cur) % m for size in sizes for k in by_size[size])
        g = ring[(cur + ahead) % m]
        if attempts == bound:
            raise RuntimeError(f"reconcile: group {g} is still below the floor after "
                               f"{bound} repair attempts")
        attempts += 1
        if not _repair_deficiency(ws, policy, strategies, g) and len(ws.members_of(g)) < floor:
            return


# -- the two operators -----------------------------------------------------
# Both are steps of a ``generator.next_state`` batch, which checks each
# event first and stalls on whatever they leave broken.

def insert_worker(ws: Workspace, policy: OperatorPolicy,
                  strategies: StrategySet, token: str) -> None:
    """Place an arriving worker, splitting the target group if it overflows.

    ``token`` must not be in the pool yet.  The worker takes the run's
    next sequence number, ``ws.next_seq``, which then advances.
    """
    g = choose_group(ws, policy, strategies.choose, strategies.rng)
    w = WorkerId(token, ws.next_seq)
    ws.next_seq += 1
    i = ws.pos[g]
    ws.set_members(i, ws.members[i] + (w,))
    ws.group[token] = g
    ws.log.append(Inserted(w, g))
    if len(ws.members[i]) > policy.max_size:
        split_group(ws, g)


def remove_worker(ws: Workspace, policy: OperatorPolicy,
                  strategies: StrategySet, token: str) -> None:
    """Remove a departing worker and repair the floor if its group broke it.

    A group that cannot be repaired is left as it is for the batch-end
    reconciliation.  ``token`` must be in the pool.
    """
    g = ws.group[token]
    i = ws.pos[g]
    ms = ws.members[i]
    k = [w.token for w in ms].index(token)  # tokens are unique within a state
    worker = ms[k]
    ws.set_members(i, ms[:k] + ms[k + 1:])
    del ws.group[token]
    ws.log.append(Removed(worker, g))

    if len(ws.members[i]) < policy.d:
        _repair_deficiency(ws, policy, strategies, g)

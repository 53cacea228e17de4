"""Worker-at-a-time update operators and the structural primitives they
compose: insert (choose a group, split when it grows past the cap) and
remove (refill a shrunken group from a donor, else merge it away).

Every operator preserves compatibility with the pre-transition current
group: that group always survives, and none of its pre-transition
members may end up in the group that performs next.  Inside a batch the
guard is tracked per worker (the "tainted" set) because members of the
current group can be relocated by splits and would otherwise slip
through a purely group-based rule.

Operators are pure: they take a state and return (new state, change log).
The change log replays: applying its entries to the pre-state reproduces
the post-state exactly (see ``recordcheck.replay_entries``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (BelowThreshold, CorruptRecord, DonorTooSmall, ForbiddenMove,
                     TooFewGroups)
from .state import GroupId, RotationState, WorkerId
from .strategies import StrategySet, choose_group, find_donor, partition_for_split


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
            raise ValueError("d must be >= 1")
        if self.max_multiplier < 2:
            raise ValueError("max_multiplier must be >= 2")

    @property
    def max_size(self) -> int:
        return self.max_multiplier * self.d


# -- change log entries -------------------------------------------------
# ``from_dict`` inverts ``to_dict``; seq is not serialized and decodes as 0.

@dataclass(frozen=True)
class Inserted:
    worker: WorkerId
    group: GroupId

    def to_dict(self):
        return {"op": "inserted", "worker": self.worker.token, "group": self.group}

    @classmethod
    def from_dict(cls, d):
        return cls(WorkerId(d["worker"], 0), d["group"])


@dataclass(frozen=True)
class Removed:
    worker: WorkerId
    group: GroupId

    def to_dict(self):
        return {"op": "removed", "worker": self.worker.token, "group": self.group}

    @classmethod
    def from_dict(cls, d):
        return cls(WorkerId(d["worker"], 0), d["group"])


@dataclass(frozen=True)
class Split:
    group: GroupId
    new_group: GroupId
    moved: tuple[WorkerId, ...]

    def to_dict(self):
        return {"op": "split", "group": self.group, "new_group": self.new_group,
                "moved": [w.token for w in self.moved]}

    @classmethod
    def from_dict(cls, d):
        return cls(d["group"], d["new_group"], tuple(WorkerId(t, 0) for t in d["moved"]))


@dataclass(frozen=True)
class Joined:
    survivor: GroupId
    absorbed: GroupId
    moved: tuple[WorkerId, ...]

    def to_dict(self):
        return {"op": "joined", "survivor": self.survivor, "absorbed": self.absorbed,
                "moved": [w.token for w in self.moved]}

    @classmethod
    def from_dict(cls, d):
        return cls(d["survivor"], d["absorbed"], tuple(WorkerId(t, 0) for t in d["moved"]))


@dataclass(frozen=True)
class Donated:
    worker: WorkerId
    from_group: GroupId
    to_group: GroupId

    def to_dict(self):
        return {"op": "donated", "worker": self.worker.token,
                "from": self.from_group, "to": self.to_group}

    @classmethod
    def from_dict(cls, d):
        return cls(WorkerId(d["worker"], 0), d["from"], d["to"])


@dataclass(frozen=True)
class DegradedEntered:
    group: GroupId

    def to_dict(self):
        return {"op": "degraded", "group": self.group}

    @classmethod
    def from_dict(cls, d):
        return cls(d["group"])


@dataclass(frozen=True)
class Stalled:
    def to_dict(self):
        return {"op": "stalled"}

    @classmethod
    def from_dict(cls, d):
        return cls()


Entry = Inserted | Removed | Split | Joined | Donated | DegradedEntered | Stalled
ChangeLog = tuple[Entry, ...]

ENTRY_KINDS = {"inserted": Inserted, "removed": Removed, "split": Split,
               "joined": Joined, "donated": Donated, "degraded": DegradedEntered,
               "stalled": Stalled}


def entry_from_dict(d: dict) -> Entry:
    kind = ENTRY_KINDS.get(d["op"])
    if kind is None:
        raise CorruptRecord(f"unknown change log op {d['op']!r}")
    return kind.from_dict(d)


@dataclass
class BatchContext:
    """Follow-compatibility bookkeeping for one event batch.

    ``tainted`` holds the tokens that belonged to the current group when
    the batch started (the workers who just performed); ``protected`` is
    the group that will perform next.  The successor of the current group
    cannot be displaced by any operator, so ``protected`` is stable for
    the whole batch.
    """

    tainted: frozenset[str]
    protected: GroupId
    degraded_logged: set[GroupId] = field(default_factory=set)

    @classmethod
    def for_state(cls, state: RotationState) -> "BatchContext":
        return cls(
            tainted=frozenset(w.token for w in state.members_of(state.current)),
            protected=state.successor(state.current),
        )


def _fresh_group_id(state: RotationState) -> GroupId:
    k = 1
    while f"g{k}" in state.used_group_ids:
        k += 1
    return f"g{k}"


def _set_members(state: RotationState, g: GroupId,
                 ms: tuple[WorkerId, ...]) -> RotationState:
    i = state.index_of(g)
    return RotationState(
        ring=state.ring,
        members=state.members[:i] + (ms,) + state.members[i + 1:],
        current=state.current,
        step_index=state.step_index,
        used_group_ids=state.used_group_ids,
        next_seq=state.next_seq,
    )


# -- structural primitives ----------------------------------------------

def split_group(state: RotationState, policy: OperatorPolicy,
                strategies: StrategySet, g: GroupId
                ) -> tuple[RotationState, ChangeLog]:
    """Split an oversized group in two.

    The group keeps its most senior half (smallest sequence numbers); a
    fresh group takes the newest half.  The fresh group lands just after
    the split group, except when splitting the current group, where it
    lands just before it: the one spot near the current group where the
    moved workers cannot end up performing next.
    """
    ms = state.members_of(g)
    if len(ms) <= policy.max_size:
        raise BelowThreshold(
            f"group {g} has {len(ms)} members, split needs > {policy.max_size}")
    by_seq = sorted(ms, key=lambda w: w.seq)
    stay_set, move_set = partition_for_split(by_seq)
    moving = frozenset(w.token for w in move_set)
    stay = tuple(w for w in ms if w.token not in moving)
    moved = tuple(sorted((w for w in ms if w.token in moving), key=lambda w: w.seq))

    fresh = _fresh_group_id(state)
    i = state.index_of(g)
    at = i if g == state.current else i + 1  # just before current, else after g
    ring = list(state.ring)
    members = list(state.members)
    members[i] = stay
    ring.insert(at, fresh)
    members.insert(at, moved)
    out = RotationState(
        ring=tuple(ring),
        members=tuple(members),
        current=state.current,
        step_index=state.step_index,
        used_group_ids=state.used_group_ids | {fresh},
        next_seq=state.next_seq,
    )
    return out, (Split(g, fresh, moved),)


def join_groups(state: RotationState, policy: OperatorPolicy,
                g_deficient: GroupId, ctx: BatchContext
                ) -> tuple[RotationState, ChangeLog]:
    """Merge a shrunken group with a neighbour.

    Survivor selection keeps the current group alive in every case:
    a deficient current group absorbs its predecessor; a deficient
    predecessor of the current group is absorbed by the current group;
    any other deficient group absorbs its own successor.  The survivor
    keeps its id and ring position; the absorbed id is retired.
    """
    if state.m <= 2:
        raise TooFewGroups("cannot join with only two groups left")
    if g_deficient == state.current:
        survivor, absorbed = state.current, state.predecessor(state.current)
    elif state.successor(g_deficient) == state.current:
        survivor, absorbed = state.current, g_deficient
    else:
        survivor, absorbed = g_deficient, state.successor(g_deficient)

    moved = state.members_of(absorbed)
    if survivor == ctx.protected and any(w.token in ctx.tainted for w in moved):
        raise ForbiddenMove(
            f"join would move just-performed workers into {survivor}, "
            "the group performing next")

    ring = list(state.ring)
    members = list(state.members)
    i_abs = state.index_of(absorbed)
    del ring[i_abs]
    del members[i_abs]
    i_sur = ring.index(survivor)
    members[i_sur] = members[i_sur] + moved
    out = RotationState(
        ring=tuple(ring),
        members=tuple(members),
        current=state.current,
        step_index=state.step_index,
        used_group_ids=state.used_group_ids,
        next_seq=state.next_seq,
    )
    return out, (Joined(survivor, absorbed, moved),)


def donate_worker(state: RotationState, policy: OperatorPolicy,
                  from_group: GroupId, to_group: GroupId, ctx: BatchContext,
                  min_size: int | None = None
                  ) -> tuple[RotationState, ChangeLog]:
    """Move the newest member of ``from_group`` into ``to_group``.

    The donor must keep at least d members afterwards.  Moving a worker
    out of the current group into its successor is forbidden: that
    worker just performed and would perform again immediately.  (The
    check is per worker, so a batch may donate a worker who arrived
    after the last published state even out of the current group.)
    """
    src = state.members_of(from_group)
    floor = policy.d + 1 if min_size is None else min_size
    if len(src) < floor:
        raise DonorTooSmall(
            f"group {from_group} has {len(src)} members, needs >= {floor} to donate")
    w = max(src, key=lambda x: x.seq)
    if to_group == ctx.protected and w.token in ctx.tainted:
        raise ForbiddenMove(
            f"worker {w.token} just performed; cannot move into {to_group}, "
            "the group performing next")
    out = _set_members(state, from_group, tuple(x for x in src if x != w))
    dst = out.members_of(to_group)
    out = _set_members(out, to_group, dst + (w,))
    return out, (Donated(w, from_group, to_group),)


# -- deficiency repair ----------------------------------------------------

def _repair_deficiency(state: RotationState, policy: OperatorPolicy,
                       strategies: StrategySet, g: GroupId, ctx: BatchContext
                       ) -> tuple[RotationState, ChangeLog, str]:
    """One repair attempt for a group that fell below the floor.

    Preference order: donation from the nearest group on the ring that
    can spare a worker, then a join, then (for emptied groups with only
    two groups left) an emergency donation that may push the donor below
    the floor.
    Returns the outcome: "repaired", "degraded" (left below floor, legal
    because n < 2d) or "blocked" (nothing legal; caller stalls or defers).
    """
    donor = find_donor(state, g, strategies.find_order, policy.d + 1,
                       ctx.tainted, ctx.protected)
    if donor is not None:
        out, log = donate_worker(state, policy, donor, g, ctx)
        return out, log, "repaired"

    if state.m >= 3:
        try:
            out, log = join_groups(state, policy, g, ctx)
            return out, log, "repaired"
        except ForbiddenMove:
            pass

    if not state.members_of(g):
        # an empty group cannot be published; allow a donor to dip below
        # the floor as long as it keeps one worker
        donor = find_donor(state, g, strategies.find_order, 2,
                           ctx.tainted, ctx.protected)
        if donor is not None:
            out, log = donate_worker(state, policy, donor, g, ctx, min_size=2)
            return out, log, "repaired" if len(out.members_of(g)) >= policy.d else "degraded"
        return state, (), "blocked"

    if state.n < 2 * policy.d:
        return state, (), "degraded"
    return state, (), "blocked"


def _note_degraded(ctx: BatchContext, g: GroupId) -> ChangeLog:
    if g in ctx.degraded_logged:
        return ()
    ctx.degraded_logged.add(g)
    return (DegradedEntered(g),)


# -- the two operators -----------------------------------------------------
# Both are steps of a ``generator.next_state`` batch, which checks each
# event first and stalls on whatever they leave broken.

def insert_worker(state: RotationState, policy: OperatorPolicy,
                  strategies: StrategySet, w: WorkerId
                  ) -> tuple[RotationState, ChangeLog]:
    """Place an arriving worker, splitting the target group if it overflows.

    ``w`` must not be in the pool yet.  Arriving workers did not perform
    in the previous state, so unlike ``remove_worker`` this needs no
    batch context.
    """
    g = choose_group(state, policy, strategies.choose, strategies.rng)
    i = state.index_of(g)
    out = RotationState(
        ring=state.ring,
        members=state.members[:i] + (state.members[i] + (w,),) + state.members[i + 1:],
        current=state.current,
        step_index=state.step_index,
        used_group_ids=state.used_group_ids,
        next_seq=max(state.next_seq, w.seq + 1),
    )
    log: list = [Inserted(w, g)]
    if len(out.members_of(g)) > policy.max_size:
        out, split_log = split_group(out, policy, strategies, g)
        log.extend(split_log)
    return out, tuple(log)


def remove_worker(state: RotationState, policy: OperatorPolicy,
                  strategies: StrategySet, token: str, ctx: BatchContext
                  ) -> tuple[RotationState, ChangeLog]:
    """Remove a departing worker and repair the floor if its group broke it.

    A group that cannot be repaired is left as it is for the batch-end
    reconciliation.
    """
    g = state.group_of(token)  # raises UnknownWorker
    ms = state.members_of(g)
    worker = next(x for x in ms if x.token == token)
    out = _set_members(state, g, tuple(x for x in ms if x.token != token))
    log: list = [Removed(worker, g)]

    if len(out.members_of(g)) < policy.d:
        out, repair_log, outcome = _repair_deficiency(out, policy, strategies, g, ctx)
        log.extend(repair_log)
        if outcome == "degraded":
            log.extend(_note_degraded(ctx, g))
    return out, tuple(log)

"""Ring-of-groups rotation state: snapshots, validity checks, counter math.

A rotation state is an immutable snapshot of a worker pool partitioned
into a ring of groups.  Ring order encodes succession (the group at
position k is followed by the group at position k+1, wrapping around),
``current`` names the group performing the task right now, and a worker's
*counter* is the ring distance from the current group to the worker's own
group: the number of tasks until their turn.

States are values: nothing mutates a ``RotationState``.  Three
bookkeeping fields ride along without taking part in equality: the set
of group ids ever used (so a retired id is never reissued within a run),
the next free worker sequence number, and the indexes of the workspace
that published the state.  A transition's batch of worker events is
applied to a ``Workspace``, a mutable and indexed copy of one state,
which is frozen back into a state at the end.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .errors import InvalidState, UnknownGroup, UnknownWorker

GroupId = str


@dataclass(frozen=True, order=True)
class WorkerId:
    """A worker handle: opaque token plus global arrival sequence number.

    ``seq`` increases in order of first appearance over a whole run and
    breaks ties whenever one member of a group must be singled out
    (splits move the newest workers, donations send the newest worker).
    """

    token: str
    seq: int


class Code(Enum):
    """Validation violation codes."""

    NOT_PARTITION = "NotPartition"
    EMPTY_GROUP = "EmptyGroup"
    NOT_SINGLE_CYCLE = "NotSingleCycle"
    TOO_FEW_GROUPS = "TooFewGroups"
    CURRENT_MISSING = "CurrentMissing"
    FOLLOWS_OVERLAP = "FollowsOverlap"
    FOLLOWS_CURRENT_GONE = "FollowsCurrentGone"
    FOLLOWS_WRONG_SUCCESSOR = "FollowsWrongSuccessor"


@dataclass(frozen=True)
class Violation:
    code: Code
    detail: str

    def __str__(self) -> str:
        return f"{self.code.value}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """All violations found, not just the first."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[Code]:
        return {v.code for v in self.violations}

    def __str__(self) -> str:
        return "; ".join(map(str, self.violations)) or "ok"


@dataclass(frozen=True)
class RotationState:
    """Snapshot of the group ring.

    ``ring`` and ``members`` are parallel: ``members[k]`` is the ordered
    member list of ``ring[k]`` (order = insertion into that group).

    ``indexes`` is ``(pos, group, by_size)`` of the workspace that
    published the state (see ``Workspace``), or None for a state built
    any other way.  Only ``Workspace.freeze`` and ``advance_current`` set
    it, so a state derived with ``dataclasses.replace`` carries none; the
    next workspace copies it instead of rebuilding it.
    """

    ring: tuple[GroupId, ...]
    members: tuple[tuple[WorkerId, ...], ...]
    current: GroupId
    step_index: int = 0
    used_group_ids: frozenset[GroupId] = field(default=frozenset(), compare=False)
    next_seq: int = field(default=1, compare=False)
    indexes: tuple | None = field(default=None, init=False, compare=False, repr=False)

    # -- shape ---------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.ring)

    @property
    def n(self) -> int:
        return sum(len(ms) for ms in self.members)

    def index_of(self, g: GroupId) -> int:
        try:
            return self.ring.index(g)
        except ValueError:
            raise UnknownGroup(g) from None

    def members_of(self, g: GroupId) -> tuple[WorkerId, ...]:
        return self.members[self.index_of(g)]

    def successor(self, g: GroupId) -> GroupId:
        return self.ring[(self.index_of(g) + 1) % self.m]

    # -- workers -------------------------------------------------------

    def tokens(self) -> set[str]:
        return {w.token for ms in self.members for w in ms}

    def group_of(self, token: str) -> GroupId:
        for g, ms in zip(self.ring, self.members):
            for w in ms:
                if w.token == token:
                    return g
        raise UnknownWorker(token)

    def without_indexes(self) -> RotationState:
        """An equal state that carries no indexes (what a run record keeps)."""
        if self.indexes is None:
            return self
        return RotationState(self.ring, self.members, self.current, self.step_index,
                             self.used_group_ids, self.next_seq)


def _carrying(state: RotationState, indexes: tuple | None) -> RotationState:
    object.__setattr__(state, "indexes", indexes)
    return state


class Workspace:
    """A mutable copy of one state, indexed so that a worker event costs
    lookups instead of ring scans.  ``next_state`` applies its batch to
    one workspace and freezes it into the published state.

    ``ring`` is a tuple, replaced when a split or join changes it.
    ``members[k]`` is the member tuple of ``ring[k]``; a change replaces
    the tuple, so ``freeze`` shares every untouched one with the input
    state.  The indexes, which every mutation keeps in step:

    ``pos``      group id -> ring position
    ``group``    worker token -> group id (its length is the pool size)
    ``by_size``  group size -> sorted ring positions of the groups of that
                 size; only sizes that occur are keys

    A member change costs O(log m) plus the group's size (``set_members``);
    a ring change costs O(m) (``reindex``).  A state that carries the
    indexes of the workspace that published it hands them on: the new
    workspace copies ``group`` and each ``by_size`` list (C-speed copies)
    and shares ``pos``, which ``reindex`` replaces and nothing mutates.
    Any other state has its indexes built, in O(n+m).

    The batch's guard and its change log:

    ``tainted``    tokens of the current group when the batch started
                   (the workers who just performed)
    ``protected``  the group that performs next.  No operator can displace
                   the successor of the current group, so it stays fixed
                   for the whole batch.
    ``degraded``   groups whose ``DegradedEntered`` is already logged
    ``log``        the change-log entries the operators appended, in order
    """

    __slots__ = ("ring", "members", "current", "step_index", "used_group_ids",
                 "next_seq", "pos", "group", "by_size",
                 "tainted", "protected", "degraded", "log")

    def __init__(self, state: RotationState):
        self.ring = state.ring
        self.members = list(state.members)
        self.current = state.current
        self.step_index = state.step_index
        self.used_group_ids = state.used_group_ids
        self.next_seq = state.next_seq
        if state.indexes is None:
            self.group = {w.token: g for g, ms in zip(state.ring, state.members) for w in ms}
            self.reindex()
        else:
            self.pos, group, by_size = state.indexes
            self.group = group.copy()
            self.by_size = {size: at.copy() for size, at in by_size.items()}
        i = self.index_of(self.current)
        self.tainted = frozenset(w.token for w in self.members[i])
        self.protected = self.ring[(i + 1) % len(self.ring)]
        self.degraded: set[GroupId] = set()
        self.log: list = []

    def reindex(self) -> None:
        """Rebuild ``pos`` and ``by_size`` after the ring changed."""
        self.pos = dict(zip(self.ring, range(len(self.ring))))
        by_size: dict[int, list[int]] = {}
        for k, ms in enumerate(self.members):
            by_size.setdefault(len(ms), []).append(k)
        self.by_size = by_size

    def set_members(self, k: int, ms: tuple[WorkerId, ...]) -> None:
        """Replace the member tuple at ring position ``k``.  The caller
        updates ``group`` for the workers that came or went."""
        old, new = len(self.members[k]), len(ms)
        self.members[k] = ms
        if old != new:
            bucket = self.by_size[old]
            del bucket[bisect_left(bucket, k)]
            if not bucket:
                del self.by_size[old]
            insort(self.by_size.setdefault(new, []), k)

    def freeze(self) -> RotationState:
        """The state the workspace holds.  It takes the workspace's
        indexes, which stay true to it only while the workspace is not
        changed again; ``next_state`` freezes last."""
        return _carrying(RotationState(
            ring=self.ring,
            members=tuple(self.members),
            current=self.current,
            step_index=self.step_index,
            used_group_ids=self.used_group_ids,
            next_seq=self.next_seq,
        ), (self.pos, self.group, self.by_size))

    # -- the read API of RotationState, by lookup ----------------------

    @property
    def m(self) -> int:
        return len(self.ring)

    @property
    def n(self) -> int:
        return len(self.group)

    def index_of(self, g: GroupId) -> int:
        try:
            return self.pos[g]
        except KeyError:
            raise UnknownGroup(g) from None

    def members_of(self, g: GroupId) -> tuple[WorkerId, ...]:
        return self.members[self.index_of(g)]

    def successor(self, g: GroupId) -> GroupId:
        return self.ring[(self.index_of(g) + 1) % len(self.ring)]

    def predecessor(self, g: GroupId) -> GroupId:
        return self.ring[self.index_of(g) - 1]

    def group_of(self, token: str) -> GroupId:
        try:
            return self.group[token]
        except KeyError:
            raise UnknownWorker(token) from None


def build_state(groups: Sequence[tuple[GroupId, Sequence]],
                current: GroupId,
                step_index: int = 0) -> RotationState:
    """Build a state whose ring order equals the given list order.

    Raises :class:`InvalidState`, carrying the full report, unless every
    validity condition holds.  Plain string tokens are accepted for
    workers; they get sequence numbers in order of appearance.
    """
    ring = tuple(g for g, _ in groups)
    members = [[w if isinstance(w, WorkerId) else WorkerId(str(w), 0) for w in ms]
               for _, ms in groups]
    # assign sequence numbers to bare tokens in appearance order
    seq = 1 + max((w.seq for ms in members for w in ms), default=0)
    filled = []
    for ms in members:
        row = []
        for w in ms:
            if w.seq == 0:
                w = WorkerId(w.token, seq)
                seq += 1
            row.append(w)
        filled.append(tuple(row))
    state = RotationState(
        ring=ring,
        members=tuple(filled),
        current=current,
        step_index=step_index,
        used_group_ids=frozenset(ring),
        next_seq=seq,
    )
    report = check_state(state)
    if not report.ok:
        raise InvalidState(report)
    return state


def check_state(state: RotationState) -> ValidationReport:
    """Check the structural conditions of a single state.  The group-size
    floor is not one of them: ``next_state`` tests it before it publishes."""
    violations: list[Violation] = []

    if len(set(state.ring)) != len(state.ring):  # find the repeats only if any
        seen: set[GroupId] = set()
        dupes = set()
        for g in state.ring:
            if g in seen:
                dupes.add(g)
            seen.add(g)
        violations.append(Violation(
            Code.NOT_SINGLE_CYCLE,
            f"duplicate group ids in ring: {sorted(dupes)}"))
    if len(state.members) != len(state.ring):
        violations.append(Violation(
            Code.NOT_SINGLE_CYCLE,
            f"{len(state.members)} member lists for {len(state.ring)} groups"))

    if state.m < 2:
        violations.append(Violation(
            Code.TOO_FEW_GROUPS, f"|G| = {state.m}, need at least 2"))

    if state.current not in state.ring:
        violations.append(Violation(
            Code.CURRENT_MISSING, f"current group {state.current!r} not in ring"))

    tokens = [w.token for ms in state.members for w in ms]
    if len(tokens) != len(set(tokens)):  # count only to name the repeats
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        multi = sorted(t for t, c in counts.items() if c > 1)
        violations.append(Violation(
            Code.NOT_PARTITION, f"workers in more than one group: {multi}"))

    if not all(state.members):
        for g, ms in zip(state.ring, state.members):
            if not ms:
                violations.append(Violation(Code.EMPTY_GROUP, f"group {g} is empty"))

    return ValidationReport(tuple(violations))


def validate_pair(prev: RotationState, nxt: RotationState) -> ValidationReport:
    """Check that ``nxt`` is a legal follow-up of ``prev``.

    Three conditions: no member of the previous current group performs
    again immediately (empty overlap with the new current group), the
    previous current group still exists, and the new current group is its
    successor in the new ring.
    """
    violations: list[Violation] = []

    prev_tokens = {w.token for w in prev.members_of(prev.current)}
    if nxt.current in nxt.ring:
        overlap = sorted(prev_tokens & {w.token for w in nxt.members_of(nxt.current)})
        if overlap:
            violations.append(Violation(
                Code.FOLLOWS_OVERLAP,
                f"workers of old current group {prev.current} are in new current "
                f"group {nxt.current}: {overlap}"))

    if prev.current not in nxt.ring:
        violations.append(Violation(
            Code.FOLLOWS_CURRENT_GONE,
            f"old current group {prev.current} was eliminated"))
    elif nxt.current != nxt.successor(prev.current):
        violations.append(Violation(
            Code.FOLLOWS_WRONG_SUCCESSOR,
            f"new current group is {nxt.current}, expected successor "
            f"{nxt.successor(prev.current)} of {prev.current}"))

    return ValidationReport(tuple(violations))


def counter_of_group(state: RotationState, g: GroupId) -> int:
    """Ring distance from the current group to ``g`` (0 for current)."""
    return (state.index_of(g) - state.index_of(state.current)) % state.m


def counter_of_worker(state: RotationState, w: WorkerId | str) -> int:
    token = w.token if isinstance(w, WorkerId) else w
    return counter_of_group(state, state.group_of(token))


def advance_current(state: RotationState) -> RotationState:
    """Move the current group forward one ring position.  The ring and
    the members stay, and so do the indexes ``state`` carries."""
    return _carrying(RotationState(
        ring=state.ring,
        members=state.members,
        current=state.successor(state.current),
        step_index=state.step_index + 1,
        used_group_ids=state.used_group_ids,
        next_seq=state.next_seq,
    ), state.indexes)

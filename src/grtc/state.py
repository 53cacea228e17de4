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
whose ``publish`` builds the next state, current group advanced, in one
construction at the end.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from enum import Enum
from itertools import compress, count
from operator import is_not, itemgetter
from typing import NamedTuple, Sequence

from .errors import InvalidState, UnknownGroup, UnknownWorker

GroupId = str


class WorkerId(NamedTuple):
    """A worker handle: opaque token plus global arrival sequence number.

    ``seq`` increases in order of first appearance over a whole run and
    breaks ties whenever one member of a group must be singled out
    (splits move the newest workers, donations send the newest worker).
    A tuple, so building, comparing, hashing and ordering (by
    ``(token, seq)``) one runs in C.
    """

    token: str
    seq: int


seniority = itemgetter(1)  # a worker's ``seq``, read in C: the key of max and sorted


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


class Violation(NamedTuple):
    code: Code
    detail: str

    def __str__(self) -> str:
        return f"{self.code.value}: {self.detail}"


class ValidationReport(NamedTuple):
    """All violations found, not just the first."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[Code]:
        return {v.code for v in self.violations}

    def __str__(self) -> str:
        return "; ".join(map(str, self.violations)) or "ok"


class RotationState:
    """Snapshot of the group ring.

    ``ring`` and ``members`` are parallel: ``members[k]`` is the ordered
    member list of ``ring[k]`` (order = insertion into that group).

    ``indexes`` is ``(pos, group, by_size)`` of the workspace that
    published the state (see ``Workspace``), or None for a state built
    any other way.  Only ``Workspace.publish`` and ``advance_current`` set
    it, so a state built with the constructor carries none; the next
    workspace copies it instead of rebuilding it.

    A value: equal and hashed by ``ring``, ``members``, ``current`` and
    ``step_index``, and no field can be assigned.  ``__init__`` fills the
    instance dict in one call.
    """

    def __init__(self, ring: tuple[GroupId, ...], members: tuple[tuple[WorkerId, ...], ...],
                 current: GroupId, step_index: int = 0,
                 used_group_ids: frozenset[GroupId] = frozenset(), next_seq: int = 1):
        self.__dict__.update(ring=ring, members=members, current=current,
                             step_index=step_index, used_group_ids=used_group_ids,
                             next_seq=next_seq, indexes=None)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of RotationState is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not RotationState:
            return NotImplemented
        return (self.ring, self.members, self.current, self.step_index) == \
            (other.ring, other.members, other.current, other.step_index)

    def __hash__(self):
        return hash((self.ring, self.members, self.current, self.step_index))

    def __repr__(self) -> str:
        return (f"RotationState(ring={self.ring!r}, members={self.members!r}, "
                f"current={self.current!r}, step_index={self.step_index!r}, "
                f"used_group_ids={self.used_group_ids!r}, next_seq={self.next_seq!r})")

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

    def without_indexes(self) -> RotationState:
        """An equal state that carries no indexes (what a run record keeps)."""
        if self.indexes is None:
            return self
        return _state(self.ring, self.members, self.current, self.step_index,
                      self.used_group_ids, self.next_seq, None)


def _state(ring, members, current, step_index, used_group_ids, next_seq,
           indexes) -> RotationState:
    """A state that carries ``indexes``."""
    state = RotationState(ring, members, current, step_index, used_group_ids, next_seq)
    state.__dict__["indexes"] = indexes
    return state


class Workspace:
    """A mutable copy of one state, indexed so that a worker event costs
    lookups instead of ring scans.  ``next_state`` applies its batch to
    one workspace, and ``publish`` builds the published state from it.

    ``ring`` is a tuple, replaced when a split or join changes it.
    ``members[k]`` is the member tuple of ``ring[k]``; a change replaces
    the tuple, so ``publish`` shares every untouched one with the input
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
    Any other state has its indexes built, in one O(n+m) pass.

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
            self.pos = pos = {}
            self.group = group = {}
            self.by_size = by_size = {}
            k = 0
            for g, ms in zip(state.ring, state.members):
                pos[g] = k
                for w in ms:
                    group[w.token] = g
                size = len(ms)
                if size in by_size:
                    by_size[size].append(k)
                else:
                    by_size[size] = [k]
                k += 1
        else:
            self.pos, group, by_size = state.indexes
            self.group = group.copy()
            self.by_size = {size: at.copy() for size, at in by_size.items()}
        i = self.index_of(self.current)
        self.tainted = frozenset([w.token for w in self.members[i]])
        self.protected = self.ring[(i + 1) % len(self.ring)]
        self.degraded: set[GroupId] = set()
        self.log: list = []

    def reindex(self) -> None:
        """Rebuild ``pos`` and ``by_size`` after the ring changed."""
        self.pos = dict(zip(self.ring, range(len(self.ring))))
        self.by_size = by_size = {}
        for k, ms in enumerate(self.members):
            size = len(ms)
            if size in by_size:
                by_size[size].append(k)
            else:
                by_size[size] = [k]

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

    def publish(self) -> RotationState:
        """The state the workspace holds with the current group advanced
        one ring position: what ``next_state`` publishes.  It takes the
        workspace's indexes, which stay true to it only while the
        workspace is not changed again; ``next_state`` publishes last."""
        return _state(self.ring, tuple(self.members), self.successor(self.current),
                      self.step_index + 1, self.used_group_ids, self.next_seq,
                      (self.pos, self.group, self.by_size))

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


def changed_positions(prev: RotationState, nxt: RotationState) -> list[int] | None:
    """The ring positions whose member tuples differ from ``prev`` to
    ``nxt``, or None when the ring changed (a split or a join).  A
    published state shares every member tuple its batch left untouched,
    so an identity scan in C skips those, and only the rest are compared.
    An idle transition shares the whole ``members`` tuple and costs no
    scan at all."""
    if not (nxt.ring is prev.ring or nxt.ring == prev.ring):
        return None
    before, after = prev.members, nxt.members
    if before is after:
        return []
    return [k for k in compress(count(), map(is_not, before, after)) if before[k] != after[k]]


def counter_of_group(state: RotationState, g: GroupId) -> int:
    """Ring distance from the current group to ``g`` (0 for current)."""
    return (state.index_of(g) - state.index_of(state.current)) % state.m


def counter_of_worker(state: RotationState, w: WorkerId | str) -> int:
    """The counter of the group that holds worker ``w`` (a handle or a token)."""
    token = w.token if isinstance(w, WorkerId) else w
    for k, ms in enumerate(state.members):
        if any(x.token == token for x in ms):
            return (k - state.index_of(state.current)) % state.m
    raise UnknownWorker(token)


def advance_current(state: RotationState) -> RotationState:
    """Move the current group forward one ring position.  The ring and
    the members stay, and so do the indexes ``state`` carries."""
    return _state(state.ring, state.members, state.successor(state.current),
                  state.step_index + 1, state.used_group_ids, state.next_seq,
                  state.indexes)

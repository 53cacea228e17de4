"""Independent validation of serialized run records.

This module deliberately re-implements every check from the serialized
schema alone: single-state structural conditions, the follows relation
between consecutive states, and change-log replay equivalence.  It never
calls into the state/operator code that produced the record, so it can
serve as the acceptance oracle for records from any producer.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    step: int  # index of the state (or of the transition's target state)
    code: str
    detail: str

    def __str__(self) -> str:
        return f"step {self.step}: {self.code}: {self.detail}"


@dataclass
class RecordValidation:
    violations: list[Finding] = field(default_factory=list)
    warnings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# -- single state ---------------------------------------------------------


def check_snapshot(snap: dict, step: int, d: int | None = None) -> RecordValidation:
    out = RecordValidation()
    ring = snap["ring"]
    members = snap["members"]

    if len(set(ring)) != len(ring):
        out.violations.append(Finding(step, "NotSingleCycle",
                                      "duplicate group ids in ring"))
    if set(members) != set(ring):
        out.violations.append(Finding(
            step, "NotSingleCycle",
            f"members keys {sorted(members)} do not match ring {sorted(ring)}"))
    if len(ring) < 2:
        out.violations.append(Finding(step, "TooFewGroups", f"|G| = {len(ring)}"))
    if snap["current"] not in ring:
        out.violations.append(Finding(step, "CurrentMissing",
                                      f"current {snap['current']!r} not in ring"))

    counts: dict[str, int] = {}
    for g in ring:
        for token in members.get(g, []):
            counts[token] = counts.get(token, 0) + 1
    dupes = sorted(t for t, c in counts.items() if c > 1)
    if dupes:
        out.violations.append(Finding(step, "NotPartition",
                                      f"workers in more than one group: {dupes}"))
    for g in ring:
        if not members.get(g):
            out.violations.append(Finding(step, "EmptyGroup", f"group {g} is empty"))

    if d is not None and d >= 1:
        n = sum(len(members.get(g, [])) for g in ring)
        degraded = n < 2 * d
        for g in ring:
            size = len(members.get(g, []))
            if 0 < size < d:
                finding = Finding(step, "BelowFloorDegraded",
                                  f"group {g} has {size} < d={d} members"
                                  + ("" if degraded else f" although n={n} >= 2d"))
                (out.warnings if degraded else out.violations).append(finding)
    return out


# -- consecutive pair -------------------------------------------------------


def check_follows(prev: dict, nxt: dict, step: int) -> RecordValidation:
    out = RecordValidation()
    prev_current = prev["current"]
    prev_members = set(prev["members"].get(prev_current, []))
    nxt_members = set(nxt["members"].get(nxt["current"], []))
    overlap = sorted(prev_members & nxt_members)
    if overlap:
        out.violations.append(Finding(
            step, "FollowsOverlap",
            f"workers of {prev_current} perform again in {nxt['current']}: {overlap}"))
    ring = nxt["ring"]
    if prev_current not in ring:
        out.violations.append(Finding(
            step, "FollowsCurrentGone",
            f"group {prev_current} missing from the next state"))
    else:
        expected = ring[(ring.index(prev_current) + 1) % len(ring)]
        if nxt["current"] != expected:
            out.violations.append(Finding(
                step, "FollowsWrongSuccessor",
                f"current is {nxt['current']}, expected {expected}"))
    return out


# -- change log replay -------------------------------------------------------


class ReplayFailure(Exception):
    pass


# the keys replay reads from each entry kind; every one holds a string
# except "moved", an array of strings
ENTRY_KEYS = {"inserted": ("worker", "group"), "removed": ("worker", "group"),
              "donated": ("worker", "from", "to"), "split": ("group", "new_group", "moved"),
              "joined": ("survivor", "absorbed", "moved"), "degraded": (), "stalled": ()}


def replay_entries(snap: dict, entries: list[dict]) -> dict:
    """Apply a serialized change log to a state snapshot.

    Implements the documented semantics of each entry kind, including
    split placement (after the split group; just before the current
    group when the current group itself splits) and the final advance of
    the current group.  Raises ReplayFailure when an entry cannot be
    applied to the state at hand, or when the state it arrives at has a
    ring that does not list each of its groups once.
    """
    ring = list(snap["ring"])
    members = {g: list(ms) for g, ms in snap["members"].items()}
    current = snap["current"]

    def take(group: str, token: str):
        if group not in members or token not in members[group]:
            raise ReplayFailure(f"worker {token} not in group {group}")
        members[group].remove(token)

    def position(group: str) -> int:
        try:
            return ring.index(group)
        except ValueError:
            raise ReplayFailure(f"group {group} is not in the ring") from None

    for k, e in enumerate(entries):
        op = e.get("op")
        if op not in ENTRY_KEYS:
            raise ReplayFailure(f"unknown change log op {op!r}")
        for key in ENTRY_KEYS[op]:
            if key not in e:
                raise ReplayFailure(f"entry {k} ({op}) has no {key!r} key")
            value = e[key]
            if key == "moved":
                if type(value) is not list or not {*map(type, value)} <= {str}:
                    raise ReplayFailure(
                        f"entry {k} ({op}): 'moved' is not an array of strings")
            elif type(value) is not str:
                raise ReplayFailure(f"entry {k} ({op}): {key!r} is not a string")
        if op == "inserted":
            if e["group"] not in members:
                raise ReplayFailure(f"insert into unknown group {e['group']}")
            members[e["group"]].append(e["worker"])
        elif op == "removed":
            take(e["group"], e["worker"])
        elif op == "donated":
            take(e["from"], e["worker"])
            if e["to"] not in members:
                raise ReplayFailure(f"donation into unknown group {e['to']}")
            members[e["to"]].append(e["worker"])
        elif op == "split":
            g, fresh = e["group"], e["new_group"]
            if g not in members:
                raise ReplayFailure(f"split of unknown group {g}")
            if fresh in members:
                raise ReplayFailure(f"split creates existing group {fresh}")
            moved = list(e["moved"])
            for token in moved:
                take(g, token)
            members[fresh] = moved
            at = position(current) if g == current else position(g) + 1
            ring.insert(at, fresh)
        elif op == "joined":
            survivor, absorbed = e["survivor"], e["absorbed"]
            if absorbed not in members or survivor not in members:
                raise ReplayFailure("join of unknown group")
            if list(e["moved"]) != members[absorbed]:
                raise ReplayFailure(
                    f"join moved list {e['moved']} does not match members "
                    f"of {absorbed}: {members[absorbed]}")
            del ring[position(absorbed)]
            members[survivor].extend(members.pop(absorbed))

    current = ring[(position(current) + 1) % len(ring)]
    if sorted(ring) != sorted(members):
        raise ReplayFailure(f"ring {ring} does not list each group of members "
                            f"{sorted(members)} once")
    return {
        "step": snap["step"] + 1,
        "current": current,
        "ring": ring,
        "members": {g: members[g] for g in ring},
    }


def check_replay(prev: dict, entries: list[dict], nxt: dict,
                 step: int) -> RecordValidation:
    out = RecordValidation()
    try:
        got = replay_entries(prev, entries)
    except ReplayFailure as e:
        out.violations.append(Finding(step, "ReplayMismatch", str(e)))
        return out
    # only the replayed keys: a snapshot may carry additive keys
    diffs = [f"{key}: replay {got[key]!r} != recorded {nxt[key]!r}"
             for key in ("step", "current", "ring", "members") if got[key] != nxt[key]]
    if diffs:
        out.violations.append(Finding(step, "ReplayMismatch", "; ".join(diffs)))
    return out


# -- whole record --------------------------------------------------------


def validate_record(doc: dict) -> RecordValidation:
    """Re-check every state, every consecutive pair and every change log
    of a serialized record, independently of how it was produced."""
    out = RecordValidation()
    d = doc.get("config", {}).get("d")
    states = doc["states"]
    for i, snap in enumerate(states):
        part = check_snapshot(snap, i, d=d)
        out.violations.extend(part.violations)
        out.warnings.extend(part.warnings)
    logs = doc.get("change_logs", [])
    for i in range(len(states) - 1):
        part = check_follows(states[i], states[i + 1], i + 1)
        out.violations.extend(part.violations)
        if i < len(logs):
            part = check_replay(states[i], logs[i], states[i + 1], i + 1)
            out.violations.extend(part.violations)
    return out

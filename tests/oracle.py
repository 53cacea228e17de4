"""Independent reference implementations of a single-event transition
and of a run's report.

Everything here works on plain dict/list values and re-derives the
documented decision rules from scratch: choose variants, half-by-
seniority splits with their placement rule, join survivor cases,
nearest-first donor scans with the just-performed guard, batch-end
reconciliation, the final advance and the publish checks.  The package
code is used only to construct input states in the tests; no operator
code path is shared.

Every published oracle output is additionally run through a local
legality check (partition, non-emptiness, ring shape, follow
conditions, worker conservation), so the oracle only ever reports
states that are legal follow-ups of the input.

``oracle_report`` recomputes ``report.json`` from a record's plain
dicts (``record_to_dict``), sharing no code with ``grtc.metrics``.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter


def to_plain(state) -> dict:
    """RotationState -> plain dict: members as (token, seq) lists."""
    return {
        "ring": list(state.ring),
        "members": {g: [(w.token, w.seq) for w in ms]
                    for g, ms in zip(state.ring, state.members)},
        "current": state.current,
        "step": state.step_index,
    }


def _succ(ring, g):
    return ring[(ring.index(g) + 1) % len(ring)]


def _pred(ring, g):
    return ring[(ring.index(g) - 1) % len(ring)]


def _sizes(members):
    return {g: len(ms) for g, ms in members.items()}


def _total(members):
    return sum(len(ms) for ms in members.values())


def _counter(ring, current, g):
    return (ring.index(g) - ring.index(current)) % len(ring)


def oracle_choose(ring, members, current, kind, d):
    sizes = _sizes(members)
    if kind == "farthest":
        return max(ring, key=lambda g: _counter(ring, current, g))
    if kind == "concentrated":
        best = None
        for g in ring:
            key = (-sizes[g], _counter(ring, current, g), g)
            if best is None or key < best[0]:
                best = (key, g)
        return best[1]
    if kind == "balanced":
        best = None
        for g in ring:
            key = (sizes[g], -_counter(ring, current, g), g)
            if best is None or key < best[0]:
                best = (key, g)
        return best[1]
    if kind == "hybrid":
        risky = [g for g in ring if sizes[g] <= d]
        if not risky:
            return oracle_choose(ring, members, current, "farthest", d)
        best = None
        for g in risky:
            key = (sizes[g], -_counter(ring, current, g), g)
            if best is None or key < best[0]:
                best = (key, g)
        return best[1]
    raise AssertionError(f"oracle cannot model choose={kind!r}")


def _newest(ms):
    return max(ms, key=lambda pair: pair[1])


def _scan_donor(ring, members, deficient, min_size, order, horizon,
                tainted, protected):
    m = len(ring)
    i = ring.index(deficient)
    dirs = (-1, 1) if order == "pred-first" else (1, -1)
    visited = {i}
    limit = m - 1 if horizon is None else min(horizon, m - 1)
    for hop in range(1, limit + 1):
        for direction in dirs:
            j = (i + direction * hop) % m
            if j in visited:
                continue
            visited.add(j)
            g = ring[j]
            if len(members[g]) < min_size:
                continue
            if deficient == protected and _newest(members[g])[0] in tainted:
                continue
            return g
    return None


def _donate(ring, members, donor, target):
    w = _newest(members[donor])
    members[donor] = [p for p in members[donor] if p != w]
    members[target] = members[target] + [w]


def _split(ring, members, used, g, current):
    ms = members[g]
    by_seq = sorted(ms, key=lambda p: p[1])
    keep = (len(ms) + 1) // 2
    stay_set = {p[0] for p in by_seq[:keep]}
    stay = [p for p in ms if p[0] in stay_set]
    moved = sorted((p for p in ms if p[0] not in stay_set), key=lambda p: p[1])
    k = 1
    while f"g{k}" in used:
        k += 1
    fresh = f"g{k}"
    used.add(fresh)
    members[g] = stay
    members[fresh] = moved
    at = ring.index(current) if g == current else ring.index(g) + 1
    ring.insert(at, fresh)


def _join(ring, members, g, current, tainted, protected):
    """Returns True when a join was applied, False when the guard blocked it."""
    if g == current:
        survivor, absorbed = current, _pred(ring, current)
    elif _succ(ring, g) == current:
        survivor, absorbed = current, g
    else:
        survivor, absorbed = g, _succ(ring, g)
    if survivor == protected and any(tok in tainted for tok, _ in members[absorbed]):
        return False
    members[survivor] = members[survivor] + members.pop(absorbed)
    ring.remove(absorbed)
    return True


def _repair(ring, members, g, current, d, order, horizon, tainted, protected):
    """One repair attempt; returns 'repaired' | 'degraded' | 'blocked'."""
    donor = _scan_donor(ring, members, g, d + 1, order, horizon,
                        tainted, protected)
    if donor is None and horizon is not None:
        donor = _scan_donor(ring, members, g, d + 1, order, None,
                            tainted, protected)
    if donor is not None:
        _donate(ring, members, donor, g)
        return "repaired"
    if len(ring) >= 3 and _join(ring, members, g, current,
                                tainted=tainted, protected=protected):
        return "repaired"
    if not members[g]:
        donor = _scan_donor(ring, members, g, 2, order, None, tainted, protected)
        if donor is not None:
            _donate(ring, members, donor, g)
            return "repaired" if len(members[g]) >= d else "degraded"
        return "blocked"
    if _total(members) < 2 * d:
        return "degraded"
    return "blocked"


def oracle_next(snap: dict, event: tuple[str, str], d: int,
                choose: str = "balanced", order: str = "pred-first",
                horizon: int | None = None, max_multiplier: int = 2):
    """Single-event transition; returns ("ok", snapshot) or ("stall", why).

    ``event`` is ("arrive", token) or ("depart", token).
    """
    ring = list(snap["ring"])
    members = {g: list(ms) for g, ms in snap["members"].items()}
    current = snap["current"]
    used = set(ring)
    tainted = {tok for tok, _ in members[current]}
    protected = _succ(ring, current)
    max_size = max_multiplier * d
    hopeless: set[str] = set()

    kind, token = event
    if kind == "arrive":
        assert all(tok != token for ms in members.values() for tok, _ in ms)
        seq = max((s for ms in members.values() for _, s in ms), default=0) + 1
        g = oracle_choose(ring, members, current, choose, d)
        members[g] = members[g] + [(token, seq)]
        if len(members[g]) > max_size:
            _split(ring, members, used, g, current)
    else:
        g = next(gr for gr, ms in members.items() if any(t == token for t, _ in ms))
        members[g] = [p for p in members[g] if p[0] != token]
        if len(members[g]) < d:
            outcome = _repair(ring, members, g, current, d, order, horizon,
                              tainted, protected)
            if outcome == "blocked":
                hopeless.add(g)

    # batch-end reconciliation: empties first, then floor recovery
    while True:
        scan_order = [ring[(ring.index(current) + k) % len(ring)]
                      for k in range(len(ring))]
        empties = [g for g in scan_order if not members[g] and g not in hopeless]
        if empties:
            target = empties[0]
        elif _total(members) >= 2 * d:
            low = [g for g in scan_order
                   if len(members[g]) < d and g not in hopeless]
            if not low:
                break
            target = low[0]
        else:
            break
        outcome = _repair(ring, members, target, current, d, order, horizon,
                          tainted, protected)
        if outcome == "blocked":
            hopeless.add(target)
        elif outcome == "degraded" and members[target]:
            if _total(members) >= 2 * d:
                hopeless.add(target)

    # advance and publish checks
    new_current = _succ(ring, current)
    n = _total(members)
    if any(not members[g] for g in ring):
        return ("stall", "empty group")
    if len(ring) < 2:
        return ("stall", "too few groups")
    if n >= 2 * d and any(len(members[g]) < d for g in ring):
        return ("stall", "floor unreachable")
    if tainted & {tok for tok, _ in members[new_current]}:
        return ("stall", "follow overlap")

    out = {
        "ring": ring,
        "members": {g: members[g] for g in ring},
        "current": new_current,
        "step": snap["step"] + 1,
    }
    _check_legal(snap, out, event)
    return ("ok", out)


def _check_legal(before: dict, after: dict, event):
    """Oracle-side legality: structure, follows, conservation."""
    ring = after["ring"]
    assert len(set(ring)) == len(ring) >= 2
    assert set(after["members"]) == set(ring)
    tokens = [tok for ms in after["members"].values() for tok, _ in ms]
    assert len(tokens) == len(set(tokens)), "partition broken"
    assert all(after["members"][g] for g in ring), "empty group published"
    # conservation: tokens after == tokens before +- the event's worker
    prior = {tok for ms in before["members"].values() for tok, _ in ms}
    kind, token = event
    expected = prior | {token} if kind == "arrive" else prior - {token}
    assert set(tokens) == expected, "workers not conserved"
    # follow conditions versus the input state
    old_current = before["current"]
    assert old_current in ring, "old current eliminated"
    assert after["current"] == _succ(ring, old_current), "wrong successor"
    old_members = {tok for tok, _ in before["members"][old_current]}
    new_members = {tok for tok, _ in after["members"][after["current"]]}
    assert not old_members & new_members, "worker performs twice in a row"


def _counters(snapshot: dict) -> dict:
    """Each group's counter in a plain snapshot, by group id in ring order."""
    ring = snapshot["ring"]
    start = ring.index(snapshot["current"])
    return {g: (k - start) % len(ring) for k, g in enumerate(ring)}


def oracle_report(doc: dict, weights) -> dict:
    """The ``report.json`` document of the record ``doc`` (the plain dicts
    of ``record_to_dict``) under the stress ``weights``.

    A worker on both sides of a transition expects its counter to fall
    by one, or, if its group just performed, to be a full lap of the new
    ring (m - 1).  It scores ``alpha`` per unit its actual counter falls
    short of that, ``beta`` per unit it exceeds it, and ``gamma`` when a
    split, join or donation moved it to another group.  Each non-zero
    row is added in the next state's ring and member order, ``burden``
    is summed with ``math.fsum`` and the quartiles use the inclusive
    method, so every float matches bit for bit.
    """
    states, logs = doc["states"], doc["change_logs"]
    per_worker: dict[str, dict] = {}

    def slot(token):
        row = per_worker.get(token)
        if row is None:
            row = per_worker[token] = {"stress": 0.0, "moves": 0, "drops": 0, "rises": 0,
                                       "tasks": 0}
        return row

    for s in states:
        for token in s["members"][s["current"]]:
            slot(token)["tasks"] += 1
    totals = {"drop": 0, "rise": 0, "moves": 0, "stress": 0.0}
    for prev, nxt, log in zip(states, states[1:], logs):
        moved_tokens = {e["worker"] for e in log if e["op"] == "donated"}
        moved_tokens.update(t for e in log if e["op"] in ("split", "joined")
                            for t in e["moved"])
        before = {token: (g, counter) for g, counter in _counters(prev).items()
                  for token in prev["members"][g]}
        m = len(nxt["ring"])
        for g, actual in _counters(nxt).items():  # in ring order
            for token in nxt["members"][g]:
                if token not in before:
                    continue  # arrived in this transition
                row = slot(token)
                prev_g, counter = before[token]
                expected = m - 1 if counter == 0 else counter - 1
                drop = expected - actual if expected > actual else 0
                rise = actual - expected if actual > expected else 0
                moved = prev_g != g and token in moved_tokens
                if not (drop or rise or moved):
                    continue
                score = weights.alpha * drop + weights.beta * rise + weights.gamma * moved
                row["stress"] += score
                row["moves"] += moved
                row["drops"] += drop
                row["rises"] += rise
                totals["drop"] += drop
                totals["rise"] += rise
                totals["moves"] += moved
                totals["stress"] += score

    series = sorted(row["stress"] for row in per_worker.values()) or [0.0]
    q1, q2, q3 = (statistics.quantiles(series, n=4, method="inclusive")
                  if len(series) >= 2 else series * 3)
    ops = Counter(e["op"] for log in logs for e in log)
    group_counts = [len(s["ring"]) for s in states]
    return {
        "group_counts": group_counts,
        "mean_m": sum(group_counts) / len(group_counts),
        "min_m": min(group_counts),
        "max_m": max(group_counts),
        "burden": math.fsum(1.0 / m for m in group_counts) / len(group_counts),
        "per_worker": dict(sorted(per_worker.items())),
        "totals": totals,
        "stress_quantiles": {"min": series[0], "p25": q1, "p50": q2, "p75": q3,
                             "max": series[-1]},
        "counts": {"splits": ops["split"], "joins": ops["joined"],
                   "donations": ops["donated"], "inserted": ops["inserted"],
                   "removed": ops["removed"]},
        "stall_time": sum(stall["duration"] for stall in doc["stalls"]),
        "transitions": len(logs),
    }

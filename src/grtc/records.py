"""Run record and report serialization.

A run record is a JSON document, schema version 1:

    {"v": 1,
     "config": {...},                    # echo of the run configuration
     "states": [{"step": 0, "current": "g1",
                 "ring": ["g1", "g2"],   # order encodes succession
                 "members": {"g1": ["w1"], "g2": ["w2"]}}, ...],
     "change_logs": [[{"op": "inserted", ...}, ...], ...],
     "stalls": [{"time": 3.0, "duration": 2.0}, ...],
     "unconsumed": [{"t": ..., "op": ..., "worker": ...}, ...]}

``change_logs[i]`` explains the transition ``states[i] -> states[i+1]``.
The "members" object lists groups in ring order; each list is the
group's member order.

``dump_record`` and ``report_text`` write ``record.json`` and
``report.json`` byte for byte as ``json.dump(..., indent=1)`` would (the
report with sorted keys), but from fixed templates rather than through
json's pure-Python indenting encoder.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _str

from .errors import CorruptRecord
from .generator import RunRecord
from .operators import DegradedEntered, Donated, Inserted, Joined, Removed, Split, Stalled
from .state import RotationState, changed_positions
from .traces import _number

SCHEMA_VERSION = 1
STALL_KEYS = ("time", "duration")
EVENT_OPS = ("arrive", "depart")


def state_snapshot(state: RotationState) -> dict:
    return {
        "step": state.step_index,
        "current": state.current,
        "ring": list(state.ring),
        "members": {g: [w.token for w in ms]
                    for g, ms in zip(state.ring, state.members)},
    }


def record_to_dict(record: RunRecord) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "config": record.config,
        "states": [state_snapshot(s) for s in record.states],
        "change_logs": [[e.to_dict() for e in log] for log in record.change_logs],
        "stalls": [{"time": t, "duration": d} for t, d in record.stalls],
        "unconsumed": [e.to_dict() for e in record.unconsumed],
    }


def dump_record(record: RunRecord, path) -> None:
    """Write ``record_to_dict(record)`` byte for byte as ``json.dump(...,
    indent=1)`` would, one state, change log, stall or unconsumed event
    at a time.  Every state passes ``check_state`` (see ``RunRecord``).

    Only the config echo goes through ``json.dumps``.  Everything else
    has a fixed shape and is written from templates, its strings escaped
    by the C encoder json uses, through a 1 MiB buffer.  A snapshot whose
    members did not change reuses the previous one's encoded body.
    """
    with open(path, "w", encoding="utf-8", buffering=1 << 20) as f:
        f.write(f'{{\n "v": {SCHEMA_VERSION},\n "config": {_nested(record.config)}')
        _write_array(f, "states", _snapshots(record.states))
        _write_array(f, "change_logs", (
            "[\n   " + ",\n   ".join([_ENTRY[type(e)](e) for e in log]) + "\n  ]"
            if log else "[]" for log in record.change_logs))
        _write_array(f, "stalls", (
            f'{{\n   "time": {_number(t)},\n   "duration": {_number(d)}\n  }}'
            for t, d in record.stalls))
        _write_array(f, "unconsumed", (
            f'{{\n   "t": {_number(e.t)},\n   "op": {_str(e.op)},\n'
            f'   "worker": {_str(e.worker)}\n  }}' for e in record.unconsumed))
        f.write("\n}\n")


def _write_array(f, key: str, items) -> None:
    """Write the record's ``key`` and its array, whose items come encoded."""
    f.write(f',\n "{key}": ')
    sep = "["
    for item in items:
        f.write(f"{sep}\n  {item}")
        sep = ","
    f.write("[]" if sep == "[" else "\n ]")


def _snapshots(states):
    """Each state's snapshot as indented in a record.

    While the ring stays the same, a group whose member tuple equals the
    previous state's keeps that state's encoded row; only the changed
    rows are encoded again (``changed_positions``).  Only one snapshot's
    rows are held at a time.
    """
    prev = None
    for s in states:
        changed = None if prev is None else changed_positions(prev, s)
        if changed is None:
            rows = [_group_row(g, ms) for g, ms in zip(s.ring, s.members)]
            head = '   "ring": [\n    ' + ",\n    ".join(map(_str, s.ring)) + "\n   ]"
        else:
            for k in changed:
                rows[k] = _group_row(s.ring[k], s.members[k])
        if changed != []:  # an unchanged snapshot keeps the previous body
            body = "{\n" + ",\n".join(rows) + "\n   }"
        prev = s
        yield (f'{{\n   "step": {s.step_index},\n   "current": {_str(s.current)},\n'
               f'{head},\n   "members": {body}\n  }}')


def _group_row(g: str, ms) -> str:
    """One group's line of a snapshot's "members" object, as indented in a record."""
    return f"    {_str(g)}: [\n     " + ",\n     ".join([_str(w.token) for w in ms]) + "\n    ]"


def _moved(ws) -> str:
    """An entry's "moved" array, as indented in a record."""
    return "[\n     " + ",\n     ".join([_str(w.token) for w in ws]) + "\n    ]" if ws else "[]"


# each change log entry as indented in a record, keys in ``to_dict``'s order
_ENTRY = {
    Inserted: lambda e: f'{{\n    "op": "inserted",\n    "worker": {_str(e.worker.token)},'
                        f'\n    "group": {_str(e.group)}\n   }}',
    Removed: lambda e: f'{{\n    "op": "removed",\n    "worker": {_str(e.worker.token)},'
                       f'\n    "group": {_str(e.group)}\n   }}',
    Split: lambda e: f'{{\n    "op": "split",\n    "group": {_str(e.group)},\n    '
                     f'"new_group": {_str(e.new_group)},\n    "moved": {_moved(e.moved)}\n   }}',
    Joined: lambda e: f'{{\n    "op": "joined",\n    "survivor": {_str(e.survivor)},\n    '
                      f'"absorbed": {_str(e.absorbed)},\n    "moved": {_moved(e.moved)}\n   }}',
    Donated: lambda e: f'{{\n    "op": "donated",\n    "worker": {_str(e.worker.token)},\n'
                       f'    "from": {_str(e.from_group)},\n    "to": {_str(e.to_group)}\n   }}',
    DegradedEntered: lambda e: f'{{\n    "op": "degraded",\n    "group": {_str(e.group)}\n   }}',
    Stalled: lambda e: '{\n    "op": "stalled"\n   }',
}


def report_text(report: dict) -> str:
    """``json.dumps(report, indent=1, sort_keys=True) + "\\n"`` for the
    document that ``metrics.summarize_run`` returns, written from fixed
    shapes: one template per worker over its five keys, one join over
    the group counts, and every other number through ``_number``.  Its
    group counts and workers are never empty."""
    parts = []
    for key, value in sorted(report.items()):
        if key == "per_worker":
            text = "{\n" + ",\n".join([
                f'  {_str(token)}: {{\n   "drops": {row["drops"]},\n   "moves": {row["moves"]},'
                f'\n   "rises": {row["rises"]},\n   "stress": {_number(row["stress"])},'
                f'\n   "tasks": {row["tasks"]}\n  }}'
                for token, row in sorted(value.items())]) + "\n }"
        elif key == "group_counts":
            text = "[\n  " + ",\n  ".join(map(str, value)) + "\n ]"
        elif isinstance(value, dict):
            text = "{\n" + ",\n".join([f"  {_str(k)}: {_number(x)}"
                                        for k, x in sorted(value.items())]) + "\n }"
        else:
            text = _number(value)
        parts.append(f" {_str(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def _nested(value) -> str:
    """``value`` as ``json.dump(..., indent=1)`` writes it one level down.
    JSON text holds no raw newline, so every newline is an indent."""
    return json.dumps(value, indent=1).replace("\n", "\n ")


def load_record(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise CorruptRecord(f"{path}:{e.lineno}: {e.msg}") from None
        except ValueError as e:  # an integer past the digit limit, or text not UTF-8
            raise CorruptRecord(f"{path}: {e}") from None
    require_shape(doc)
    return doc


def require_shape(doc: dict) -> None:
    """Structural sanity only; semantic checks live in recordcheck."""
    if not isinstance(doc, dict):
        raise CorruptRecord("record is not an object")
    if type(doc.get("v")) is not int or doc["v"] != SCHEMA_VERSION:  # not True or 1.0
        raise CorruptRecord(f"unsupported record version {doc.get('v')!r}")
    for key in ("config", "states", "change_logs", "stalls"):
        if key not in doc:
            raise CorruptRecord(f"missing key {key!r}")
    _require(doc["states"], list, "states")
    _require(doc["change_logs"], list, "change_logs")
    if not doc["states"]:
        raise CorruptRecord("record has no states")
    if len(doc["change_logs"]) != len(doc["states"]) - 1:
        raise CorruptRecord(
            f"{len(doc['change_logs'])} change logs for {len(doc['states'])} states")
    _require(doc["config"], dict, "config")
    if doc["config"].get("d") is not None:
        _require(doc["config"]["d"], int, "config.d")
        if doc["config"]["d"] < 1:
            raise CorruptRecord("config.d: must be >= 1")
    for i, snap in enumerate(doc["states"]):
        _require(snap, dict, f"states[{i}]")
        for key in ("step", "current", "ring", "members"):
            if key not in snap:
                raise CorruptRecord(f"states[{i}]: missing key {key!r}")
        _require(snap["step"], int, f"states[{i}].step")
        _require(snap["current"], str, f"states[{i}].current")
        _require(snap["members"], dict, f"states[{i}].members")
        lists = [snap["ring"], *snap["members"].values()]
        if not {*map(type, lists)} <= {list} or not {*map(type, chain(*lists))} <= {str}:
            k = next(k for k, ms in enumerate(lists)
                     if type(ms) is not list or not {*map(type, ms)} <= {str})
            where = f"members.{list(snap['members'])[k - 1]}" if k else "ring"
            raise CorruptRecord(f"states[{i}].{where}: expected an array of strings")
    logs = doc["change_logs"]
    arrays = {*map(type, logs)} <= {list}
    entries = [*chain(*logs)] if arrays else []
    if not (arrays and {*map(type, entries)} <= {dict}
            and {type(e.get("op")) for e in entries} <= {str}):
        for i, log in enumerate(logs):  # locate the first malformed one
            _require(log, list, f"change_logs[{i}]")
            for j, entry in enumerate(log):
                _require(entry, dict, f"change_logs[{i}][{j}]")
                if "op" not in entry:
                    raise CorruptRecord(f"change_logs[{i}][{j}]: missing key 'op'")
                _require(entry["op"], str, f"change_logs[{i}][{j}].op")
    stalls = doc["stalls"]
    _require(stalls, list, "stalls")
    if not ({*map(type, stalls)} <= {dict}
            and {type(s.get(k)) for s in stalls for k in STALL_KEYS} <= {float}):
        for i, stall in enumerate(stalls):  # locate the first malformed one
            _require(stall, dict, f"stalls[{i}]")
            for key in STALL_KEYS:
                if key not in stall:
                    raise CorruptRecord(f"stalls[{i}]: missing key {key!r}")
                _require(stall[key], (int, float), f"stalls[{i}].{key}")
                value = stall[key]
                if type(value) is int and abs(value) > sys.float_info.max:  # checks subtract
                    raise CorruptRecord(f"stalls[{i}].{key}: an integer beyond the float range")
    events = doc.get("unconsumed", [])
    _require(events, list, "unconsumed")
    if not ({*map(type, events)} <= {dict}
            and {type(e.get("t")) for e in events} <= {int, float}
            and {type(e.get("op")) for e in events} <= {str}
            and {e["op"] for e in events} <= {*EVENT_OPS}
            and {type(e.get("worker")) for e in events} <= {str}):
        for i, event in enumerate(events):  # locate the first malformed one
            _require(event, dict, f"unconsumed[{i}]")
            for key, kind in (("t", (int, float)), ("op", str), ("worker", str)):
                if key not in event:
                    raise CorruptRecord(f"unconsumed[{i}]: missing key {key!r}")
                _require(event[key], kind, f"unconsumed[{i}].{key}")
            if event["op"] not in EVENT_OPS:
                raise CorruptRecord(f"unconsumed[{i}].op: expected \"arrive\" or "
                                    f"\"depart\", got {event['op']!r}")


def _require(value, kind: type | tuple[type, ...], path: str) -> None:
    if not isinstance(value, kind) or isinstance(value, bool):
        name = {dict: "an object", list: "an array", str: "a string",
                int: "an integer", (int, float): "a number"}[kind]
        raise CorruptRecord(f"{path}: expected {name}, got {type(value).__name__}")

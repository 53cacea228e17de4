"""Run record serialization.

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
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _str

from .errors import CorruptRecord
from .generator import RunRecord
from .state import RotationState

SCHEMA_VERSION = 1
STALL_KEYS = ("time", "duration")


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
        **_history(record),
    }


def _history(record: RunRecord) -> dict:
    """The record's keys after "states"."""
    return {
        "change_logs": [[e.to_dict() for e in log] for log in record.change_logs],
        "stalls": [{"time": t, "duration": d} for t, d in record.stalls],
        "unconsumed": [e.to_dict() for e in record.unconsumed],
    }


def dump_record(record: RunRecord, path) -> None:
    """Write ``record_to_dict(record)`` byte for byte as ``json.dump(...,
    indent=1)`` would, streaming the states one at a time.  Every state
    passes ``check_state`` (see ``RunRecord``).

    While the ring stays the same, a group whose member tuple is the
    previous state's object keeps that state's encoded row; only the
    changed rows are encoded again.  Only one snapshot's rows are held
    at a time.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(f'{{\n "v": {SCHEMA_VERSION},\n "config": {_nested(record.config)},\n "states": ')
        ring = members = None
        sep = "["
        for s in record.states:
            if s.ring is ring or s.ring == ring:
                for k, ms in enumerate(s.members):
                    if ms is not members[k]:
                        rows[k] = _group_row(ring[k], ms)
            else:
                ring = s.ring
                rows = [_group_row(g, ms) for g, ms in zip(ring, s.members)]
                head = '   "ring": [\n    ' + ",\n    ".join(map(_str, ring)) + "\n   ]"
            members = s.members
            body = "{\n" + ",\n".join(rows) + "\n   }"
            f.write(f'{sep}\n  {{\n   "step": {s.step_index},\n'
                    f'   "current": {_str(s.current)},\n{head},\n   "members": {body}\n  }}')
            sep = ","
        f.write("\n ]")
        for key, value in _history(record).items():
            f.write(f",\n {_str(key)}: {_nested(value)}")
        f.write("\n}\n")


def _group_row(g: str, ms) -> str:
    """One group's line of a snapshot's "members" object, as indented in a record."""
    return f"    {_str(g)}: [\n     " + ",\n     ".join([_str(w.token) for w in ms]) + "\n    ]"


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
    if not isinstance(doc, dict) or doc.get("v") != SCHEMA_VERSION:
        raise CorruptRecord(f"unsupported record version {doc.get('v')!r}"
                            if isinstance(doc, dict) else "record is not an object")
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
            and {type(s.get(k)) for s in stalls for k in STALL_KEYS} <= {int, float}):
        for i, stall in enumerate(stalls):  # locate the first malformed one
            _require(stall, dict, f"stalls[{i}]")
            for key in STALL_KEYS:
                if key not in stall:
                    raise CorruptRecord(f"stalls[{i}]: missing key {key!r}")
                _require(stall[key], (int, float), f"stalls[{i}].{key}")


def _require(value, kind: type | tuple[type, ...], path: str) -> None:
    if not isinstance(value, kind) or isinstance(value, bool):
        name = {dict: "an object", list: "an array", str: "a string",
                int: "an integer", (int, float): "a number"}[kind]
        raise CorruptRecord(f"{path}: expected {name}, got {type(value).__name__}")

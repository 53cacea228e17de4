"""Worker arrival/departure streams: synthetic generation and JSONL I/O.

A trace is an initial roster plus time-ordered events.  Arrivals form a
Poisson process (exponential gaps); every worker, initial or arrived,
stays for an exponential sojourn and departs unless the trace ends
first.  A worker who leaves and comes back is a new worker: tokens are
never reused within a trace.
"""

from __future__ import annotations

import json
import math
import random
import sys
from json.encoder import encode_basestring_ascii as _str
from typing import IO, Iterable, NamedTuple

from .errors import ConfigError, ConsistencyError, OrderError, ParseError

FORMAT_NAME = "grtc-trace"
FORMAT_VERSION = 1

# the keys of a JSON ``trace`` object besides "seed", and their number kinds
TRACE_KEYS = {"duration": float, "arrival_rate": float, "departure_rate": float,
              "initial_workers": int}


class WorkerEvent(NamedTuple):
    """One arrival or departure.  A tuple, so building one costs what a
    tuple does."""

    t: float
    op: str  # "arrive" | "depart"
    worker: str

    def to_dict(self) -> dict:
        return {"t": self.t, "op": self.op, "worker": self.worker}


class _TraceModel(NamedTuple):
    seed: int = 0
    duration: float = 100.0
    arrival_rate: float = 1.0
    departure_rate: float = 0.1
    initial_workers: int = 4


class TraceConfig(_TraceModel):
    """Stochastic model for one synthetic trace.

    ``arrival_rate`` is the Poisson intensity of newcomers per unit
    time; ``departure_rate`` is the reciprocal mean sojourn.  Zero rates
    are allowed as degenerate limits (no arrivals / nobody leaves).
    """

    __slots__ = ()

    def __init__(self, *_args, **_kwargs):  # ``_TraceModel.__new__`` set the fields
        if not all(map(math.isfinite, (self.duration, self.arrival_rate,
                                       self.departure_rate))):
            raise ConfigError("duration and rates must be finite")  # else no end
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.arrival_rate < 0 or self.departure_rate < 0:
            raise ConfigError("rates must be >= 0")
        if self.initial_workers < 2:
            raise ConfigError("need at least two initial workers")

    @classmethod
    def from_spec(cls, spec, seed) -> "TraceConfig":
        """Build from a JSON ``trace`` object; the caller picks the seed.
        Numbers are checked, not coerced: ``initial_workers`` must be an
        integer, the rest numbers, and a bool or a string is neither."""
        # config imports the generator, which imports this
        from .config import known_keys, number
        if not isinstance(spec, dict):
            raise ConfigError(f"trace must be an object, got {type(spec).__name__}")
        known_keys(spec, "trace", (*TRACE_KEYS, "seed"))  # the caller reads "seed"
        values = {}
        for key, kind in TRACE_KEYS.items():
            if key not in spec:
                raise ConfigError(f"trace.{key} is missing")
            values[key] = number(spec[key], f"trace.{key}", kind)
        return cls(seed=seed, **values)


def generate_trace(config: TraceConfig) -> tuple[list[str], list[WorkerEvent]]:
    """Synthesize (initial roster, events); deterministic given the seed."""
    rng = random.Random(f"trace:{config.seed}")
    roster = [f"w{i + 1}" for i in range(config.initial_workers)]
    raw: list[tuple[float, int, str, str]] = []
    order = 0

    def add_departure(token: str, t_from: float):
        nonlocal order
        if config.departure_rate <= 0:
            return
        t = t_from + rng.expovariate(config.departure_rate)
        if t <= config.duration:
            raw.append((t, order, "depart", token))
            order += 1

    for token in roster:
        add_departure(token, 0.0)

    next_token = config.initial_workers + 1
    if config.arrival_rate > 0:
        t = rng.expovariate(config.arrival_rate)
        while t <= config.duration:
            token = f"w{next_token}"
            next_token += 1
            raw.append((t, order, "arrive", token))
            order += 1
            add_departure(token, t)
            t += rng.expovariate(config.arrival_rate)

    raw.sort(key=lambda r: (r[0], 0 if r[2] == "arrive" else 1, r[1]))
    return roster, [WorkerEvent(t, op, tok) for t, _, op, tok in raw]


_INFINITIES = (math.inf, -math.inf)


def _number(x: int | float) -> str:
    """A number as ``json.dumps`` writes it: its ``repr``, except that
    NaN and the infinities are written ``NaN``, ``Infinity`` and
    ``-Infinity``."""
    if x != x:
        return "NaN"
    if x in _INFINITIES:
        return "Infinity" if x > 0 else "-Infinity"
    return repr(x)


def write_trace(stream: IO[str], initial: Iterable[str],
                events: Iterable[WorkerEvent]) -> None:
    """Write a trace as JSON Lines, byte for byte as ``json.dumps`` writes
    the header and each event's ``to_dict()``.  Each event comes from one
    fixed template, its strings escaped by the C encoder json uses."""
    header = {"format": FORMAT_NAME, "v": FORMAT_VERSION, "initial": list(initial)}
    stream.write(json.dumps(header) + "\n")
    stream.write("".join([f'{{"t": {_number(e.t)}, "op": {_str(e.op)}, '
                          f'"worker": {_str(e.worker)}}}\n' for e in events]))


def write_trace_file(path, initial, events) -> None:
    with open(path, "w", encoding="utf-8") as f:
        write_trace(f, initial, events)


def read_trace(stream: IO[str]) -> tuple[list[str], list[WorkerEvent]]:
    """Parse and cross-check a trace: finite timestamps > 0 in order,
    string tokens, departures only of present workers, arrivals only of
    never-seen tokens.  Nothing is coerced."""
    lines = stream.read().splitlines()
    if not lines:
        raise ParseError("empty trace", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ParseError(f"bad header: {e.msg}", line=1) from None
    except ValueError as e:  # an integer past the digit limit
        raise ParseError(f"bad header: {e}", line=1) from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise ParseError(f"not a {FORMAT_NAME} file", line=1)
    if type(header.get("v")) is not int or header["v"] != FORMAT_VERSION:  # not True or 1.0
        raise ParseError(f"unsupported version {header.get('v')!r}", line=1)
    initial = header.get("initial", [])
    if not isinstance(initial, list) or not all(isinstance(w, str) for w in initial):
        raise ParseError("header field 'initial' must be a list of tokens", line=1)

    events: list[WorkerEvent] = []
    present = set(initial)
    seen = set(initial)
    if len(seen) != len(initial):
        raise ConsistencyError("duplicate tokens in initial roster", line=1)
    last_t = None
    for no, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(e.msg, line=no) from None
        except ValueError as e:  # an integer past the digit limit
            raise ParseError(str(e), line=no) from None
        try:
            t, op, worker = obj["t"], obj["op"], obj["worker"]
        except (KeyError, TypeError):
            raise ParseError(f"malformed event {text!r}", line=no) from None
        if type(t) not in (int, float) or not 0 < t <= sys.float_info.max:
            raise ParseError(f"event time {t!r} is not a finite number > 0", line=no)
        if op not in ("arrive", "depart"):
            raise ParseError(f"unknown op {op!r}", line=no)
        if not isinstance(worker, str):
            raise ParseError(f"worker {worker!r} is not a string", line=no)
        t = float(t)
        if last_t is not None and t < last_t:
            raise OrderError(f"timestamp {t} before previous {last_t}", line=no)
        last_t = t
        if op == "arrive":
            if worker in seen:
                raise ConsistencyError(
                    f"arrival of already-used token {worker}", line=no)
            present.add(worker)
            seen.add(worker)
        else:
            if worker not in present:
                raise ConsistencyError(
                    f"departure of absent worker {worker}", line=no)
            present.discard(worker)
        events.append(WorkerEvent(t, op, worker))
    return list(initial), events


def read_trace_file(path) -> tuple[list[str], list[WorkerEvent]]:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return read_trace(f)
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from None

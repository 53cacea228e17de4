"""Span tracing of grtc from outside the package.

``Tracer.install`` wraps the public functions of each grtc module and puts
each wrapper wherever a grtc module looks the original name up (for
example both ``grtc.strategies.find_donor`` and the copy that
``grtc.operators`` imported), so nothing under ``src/`` changes.  Every
call records a span: name, start, end, the span that was open when it
started, and how it ended.  A span's self time is its duration minus the
durations of its direct children; calls on one thread nest, so children
never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time

# layer (grtc module) -> public functions wrapped in it
LAYERS = {
    "traces": ("generate_trace", "read_trace"),
    "generator": ("run_rotation", "next_state", "partition_events"),
    "strategies": ("choose_group", "find_donor"),
    "operators": ("insert_worker", "remove_worker"),
    "state": ("check_state", "validate_pair"),
    "metrics": ("summarize_run", "transition_stress"),
    "records": ("record_to_dict", "dump_record", "load_record"),
    "recordcheck": ("validate_record", "check_replay"),
    "sweep": ("execute", "run_combo"),
}

# counts read off a function's return value: span name -> (counter, f(result))
RESULT_COUNTS = {
    "traces.generate_trace": ("traces.events", lambda r: len(r[1])),
    "traces.read_trace": ("traces.events", lambda r: len(r[1])),
    "recordcheck.validate_record": ("recordcheck.findings", lambda r: len(r.violations)),
}

RETURNED_NONE = "None"


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.outcomes: list[str | None] = []  # exception name, RETURNED_NONE or None
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, outcomes, stack = self.parents, self.outcomes, self._stack
        counts = self.counts
        count_rule = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            outcomes.append(None)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                outcomes[i] = type(e).__name__
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if result is None:
                outcomes[i] = RETURNED_NONE
            elif count_rule is not None:
                key, measure = count_rule
                counts[key] = counts.get(key, 0) + measure(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every grtc-module binding of each wrapped function."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "grtc" or k.startswith("grtc.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"grtc.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- derived numbers ------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, None returns,
        raised exception counts, and inclusive durations (for percentiles)."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "none": 0, "raised": {}, "durations": []})
            s["calls"] += 1
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            s["durations"].append(dur[i])
            outcome = self.outcomes[i]
            if outcome == RETURNED_NONE:
                s["none"] += 1
            elif outcome is not None:
                s["raised"][outcome] = s["raised"].get(outcome, 0) + 1
        return out

    def dump(self, path) -> None:
        """Write every span (µs since the first span) as gzipped JSON."""
        ids: dict[str, int] = {}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[ids.setdefault(n, len(ids)), round((s - t0) * 1e6, 3),
                 round((e - t0) * 1e6, 3), p, o]
                for n, s, e, p, o in zip(self.names, self.starts, self.ends,
                                         self.parents, self.outcomes)]
        doc = {"names": list(ids),
               "columns": ["name", "start_us", "end_us", "parent", "outcome"],
               "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


def percentile_us(durations: list[float], q: int) -> float:
    """The q-th percentile (1..99) of durations, in microseconds."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6

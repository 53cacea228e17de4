"""Run configuration: one JSON object describing policy, strategies,
weights, seed, schedule and the initial pool.

    {"d": 2, "max_multiplier": 2,
     "choose": "balanced",
     "find": {"order": "pred-first", "horizon": "unlimited"},
     "weights": {"alpha": 1.0, "beta": 0.25, "gamma": 0.5},
     "seed": 42,
     "schedule": {"interval": 1.0, "count": 100},   # or {"times": [...]}
     "initial": {"workers": 8}}                     # or explicit groups
"""

from __future__ import annotations

import json
import math

from .errors import ConfigError
from .generator import TaskSchedule, build_initial_state
from .metrics import StressWeights
from .operators import OperatorPolicy
from .state import RotationState, build_state
from .strategies import StrategySet


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}: {e.msg}") from None
    except ValueError as e:  # an integer past the digit limit, or text not UTF-8
        raise ConfigError(f"{path}: {e}") from None


def parse_horizon(value) -> int | None:
    if value in (None, "unlimited"):
        return None
    if type(value) is int and value >= 1:
        return value
    raise ConfigError("config.find.horizon must be a positive integer or 'unlimited', "
                      f"got {value!r}")


def number(value, path: str, kind: type = float):
    """A config number, checked rather than coerced: a bool or a string
    is not a number, and an integer key takes no fraction."""
    if type(value) not in ((int,) if kind is int else (int, float)):
        raise ConfigError(f"{path} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{path} must be a finite number, "
                          f"got an integer of {len(str(abs(value)))} digits") from None


def finite(value, path: str) -> float:
    """A config number that must be finite (the JSON reader accepts NaN
    and Infinity)."""
    x = number(value, path)
    if not math.isfinite(x):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return x


def section(config: dict, key: str) -> dict:
    """An optional object-valued config key; absent means empty."""
    value = config.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config.{key} must be an object, got {type(value).__name__}")
    return value


def known_keys(obj: dict, path: str, keys: tuple[str, ...]) -> None:
    """Reject a key outside ``keys``: a misspelt key would otherwise
    run the default silently."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"unknown key {path}.{key}; expected one of: {', '.join(keys)}")


CONFIG_KEYS = ("d", "max_multiplier", "choose", "find", "weights", "seed", "schedule",
               "initial")


class RunSetup:
    """Everything needed to execute one run, parsed and validated."""

    def __init__(self, config: dict):
        if not isinstance(config, dict):
            raise ConfigError(f"config must be an object, got {type(config).__name__}")
        known_keys(config, "config", CONFIG_KEYS)
        self.config = config
        find = section(config, "find")
        known_keys(find, "config.find", ("order", "horizon"))
        self.policy = OperatorPolicy(
            d=number(config.get("d", 2), "config.d", int),
            max_multiplier=number(config.get("max_multiplier", 2),
                                  "config.max_multiplier", int),
        )

        # accepted and echoed only: the donor scan is nearest-first, so a
        # scan bounded to ``horizon`` hops that widens to the whole ring on
        # a miss returns the same donor as one whole-ring scan
        self.horizon = parse_horizon(find.get("horizon"))
        self.seed = number(config.get("seed", 0), "config.seed", int)
        self.strategies = StrategySet.seeded(config.get("choose", "balanced"),
                                             find.get("order", "pred-first"), self.seed)

        w = section(config, "weights")
        known_keys(w, "config.weights", ("alpha", "beta", "gamma"))
        self.weights = StressWeights(**{
            key: number(w.get(key, default), f"config.weights.{key}")
            for key, default in (("alpha", 1.0), ("beta", 0.25), ("gamma", 0.5))})

        self.schedule = parse_schedule(config.get("schedule"))
        self.initial = section(config, "initial")
        known_keys(self.initial, "config.initial",
                   ("groups", "current") if "groups" in self.initial else ("workers",))

    def echo(self) -> dict:
        """Config as recorded in run records, defaults filled in."""
        out = dict(self.config)
        out["d"] = self.policy.d
        out["max_multiplier"] = self.policy.max_multiplier
        out["choose"] = self.strategies.choose
        out["find"] = {
            "order": self.strategies.find_order,
            "horizon": "unlimited" if self.horizon is None else self.horizon,
        }
        out["weights"] = {"alpha": self.weights.alpha, "beta": self.weights.beta,
                          "gamma": self.weights.gamma}
        out["seed"] = self.seed
        return out

    def initial_state(self, roster: list[str] | None = None) -> RotationState:
        """Build the starting state from an explicit roster (e.g. a trace
        header) or from the config's "initial" section."""
        spec = self.initial
        if "groups" in spec:
            groups = spec["groups"]
            if not isinstance(groups, list):
                raise ConfigError("config.initial.groups must be an array of [group, "
                                  f"[workers]] pairs, got {type(groups).__name__}")
            for k, item in enumerate(groups):
                if not (isinstance(item, list) and len(item) == 2
                        and isinstance(item[0], str) and isinstance(item[1], list)
                        and all(isinstance(w, str) for w in item[1])):
                    raise ConfigError(f"config.initial.groups[{k}] must be a "
                                      f"[group, [workers]] pair, got {item!r}")
            if "current" not in spec:
                raise ConfigError("explicit initial groups need a 'current' field")
            built = build_state(groups, current=spec["current"])
            if roster is not None and built.tokens() != set(roster):
                raise ConfigError(
                    "explicit initial groups do not match the trace roster")
            return built
        if roster is None:
            count = spec.get("workers")
            if not isinstance(count, int) or count < 2:
                raise ConfigError(
                    "config needs initial.workers >= 2 (or an explicit trace)")
            roster = [f"w{i + 1}" for i in range(count)]
        return build_initial_state(roster, self.policy)


def parse_schedule(spec) -> TaskSchedule:
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'schedule' object")
    known_keys(spec, "config.schedule",
               ("times",) if "times" in spec else ("interval", "count", "start"))
    if "times" in spec:
        times = spec["times"]
        if not isinstance(times, list):
            raise ConfigError("config.schedule.times must be an array of numbers, "
                              f"got {type(times).__name__}")
        return TaskSchedule.explicit(
            [finite(t, f"config.schedule.times[{k}]") for k, t in enumerate(times)])
    for key in ("interval", "count"):
        if key not in spec:
            raise ConfigError(f"config.schedule.{key} is missing")
    start = finite(spec["start"], "config.schedule.start") if "start" in spec else None
    return TaskSchedule.periodic(finite(spec["interval"], "config.schedule.interval"),
                                 number(spec["count"], "config.schedule.count", int),
                                 start=start)

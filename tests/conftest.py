import pytest
from hypothesis import strategies as st

from grtc import (
    OperatorPolicy,
    RotationState,
    StrategySet,
    TaskSchedule,
    WorkerEvent,
    build_initial_state,
    run_rotation,
)
from grtc.state import Workspace, build_state


@pytest.fixture
def fig1():
    """Nine workers in three groups, current g1, successor g2.

    Sizes 3/2/4 with d=2; the worked example used throughout."""
    return build_state(
        [("g1", ["w1", "w2", "w3"]),
         ("g2", ["w4", "w5"]),
         ("g3", ["w6", "w7", "w8", "w9"])],
        current="g1")


@pytest.fixture
def policy():
    return OperatorPolicy(d=2, max_multiplier=2)


@pytest.fixture
def strategies():
    return StrategySet.seeded("balanced", "pred-first", seed=0)


def make_state(spec, current):
    """spec: list of (gid, [tokens]) with seq = appearance order."""
    return build_state(spec, current=current)


def snapshot(ws):
    """The state a workspace holds, current group not advanced, carrying
    no indexes.  Given a state, it returns an equal state built without
    the indexes a published state carries."""
    return RotationState(ws.ring, tuple(ws.members), ws.current, ws.step_index,
                         ws.used_group_ids, ws.next_seq)


afresh = snapshot  # said of a state rather than a workspace


def on_workspace(op, state, *args):
    """Apply one operator the way ``next_state`` does: wrap ``state`` in a
    workspace, call ``op`` on it, snapshot it.  Returns (state, change log)."""
    ws = Workspace(state)
    op(ws, *args)
    return snapshot(ws), tuple(ws.log)


def scripted_inputs(tokens, n0, script, d=2, count=8, choose="balanced"):
    """The inputs of a run over ``tokens``, as ``run_rotation`` takes them:
    (initial, policy, strategies, schedule, events).  The first ``n0``
    start, the rest arrive in order.  ``script`` holds (gap, op, pick)
    steps: an arrival of the next newcomer, or a departure of present
    worker ``pick`` (mod the pool), ``gap`` after the previous event.  A
    step with nobody to move is skipped, so every event is consistent."""
    present, newcomers = list(tokens[:n0]), list(tokens[n0:])
    events, t = [], 0.1  # events at t <= 0 are never applied
    for gap, op, pick in script:
        t += gap
        if op == "arrive" and newcomers:
            worker = newcomers.pop(0)
            present.append(worker)
        elif op == "depart" and present:
            worker = present.pop(pick % len(present))
        else:
            continue
        events.append(WorkerEvent(t, op, worker))
    policy = OperatorPolicy(d=d)
    return (build_initial_state(list(tokens[:n0]), policy), policy,
            StrategySet.seeded(choose, "pred-first", 0),
            TaskSchedule.periodic(1.0, count), events)


def scripted_run(tokens, n0, script, d=2, count=8, choose="balanced", config=None):
    """The run of ``scripted_inputs(tokens, n0, script, d, count, choose)``."""
    return run_rotation(*scripted_inputs(tokens, n0, script, d, count, choose),
                        config=config)


# worker tokens that JSON must escape: quotes, backslashes, control
# characters and text outside ASCII (including outside the BMP)
tokens = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f\xe9\u2603\U0001f600'),
                           st.characters(blacklist_categories=("Cs",))),
                 min_size=1, max_size=4)
steps = st.tuples(st.sampled_from([0.0, 0.3, 1.0, 2.5]),
                  st.sampled_from(["arrive", "depart"]), st.integers(0, 63))


@st.composite
def run_inputs(draw):
    """The inputs of short runs with idle stretches, splits, joins, stalls
    and unconsumed events, over tokens that need escaping."""
    names = draw(st.lists(tokens, min_size=12, max_size=12, unique=True))
    return scripted_inputs(names, draw(st.integers(2, 6)), draw(st.lists(steps, max_size=16)),
                           d=draw(st.integers(1, 3)), count=draw(st.integers(1, 10)),
                           choose=draw(st.sampled_from(["balanced", "farthest",
                                                        "concentrated", "hybrid"])))


@st.composite
def runs(draw, config=st.just({})):
    """The runs of ``run_inputs``, echoing a drawn ``config``."""
    return run_rotation(*draw(run_inputs()), config=draw(config))


def json_values(names: list[str]):
    """Any JSON value, small: ``names`` (the names of the file being
    edited, for near misses) as strings and object keys, small integers,
    any float including NaN and the infinities, short text."""
    near = st.sampled_from(names)
    return st.recursive(
        st.none() | st.booleans() | st.integers(-3, 50) | st.floats() | st.text(max_size=4)
        | near,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(near, inner, max_size=3),
        max_leaves=6)

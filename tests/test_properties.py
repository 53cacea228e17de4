"""Property tests over randomly generated states and batches."""

import copy
import io
import random

from hypothesis import given, settings, strategies as st

from grtc import (
    OperatorPolicy,
    RotationState,
    StallError,
    StrategySet,
    WorkerEvent,
    build_initial_state,
    next_state,
    read_trace,
    run_rotation,
    write_trace,
)
from grtc.generator import _publish_fault, partition_events
from grtc.operators import Donated, insert_worker, reconcile, remove_worker
from grtc.recordcheck import replay_entries
from grtc.records import state_snapshot
from grtc.state import (
    Code,
    WorkerId,
    Workspace,
    advance_current,
    check_state,
    counter_of_group,
    validate_pair,
)
from grtc.strategies import CHOOSE_KINDS, FIND_ORDERS, choose_group, find_donor

from conftest import afresh, on_workspace, run_inputs, runs, snapshot
from oracle import _scan_donor, oracle_choose, oracle_next, to_plain


@st.composite
def states(draw, max_n=12, max_m=5):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=2, max_value=min(max_m, n)))
    assignment = draw(
        st.lists(st.integers(min_value=0, max_value=m - 1),
                 min_size=n, max_size=n)
        .filter(lambda a: len(set(a)) == m))
    groups = [[] for _ in range(m)]
    for i, b in enumerate(assignment):
        groups[b].append(WorkerId(f"w{i + 1}", i + 1))
    current_idx = draw(st.integers(min_value=0, max_value=m - 1))
    return RotationState(
        ring=tuple(f"g{k + 1}" for k in range(m)),
        members=tuple(tuple(g) for g in groups),
        current=f"g{current_idx + 1}",
        step_index=0,
        used_group_ids=frozenset(f"g{k + 1}" for k in range(m)),
        next_seq=n + 1,
    )


@st.composite
def scrambled_states(draw, max_m=7, max_size=5, sizes=None):
    """States as a run leaves them: multi-digit group ids out of ring order
    (a split takes the lowest unused id), any group current, and member
    order that is not seniority order (donations append the newest).
    ``sizes`` fixes the group sizes in ring order."""
    if sizes is None:
        m = draw(st.integers(min_value=2, max_value=max_m))
        sizes = draw(st.lists(st.integers(min_value=1, max_value=max_size),
                              min_size=m, max_size=m))
    ids = draw(st.lists(st.integers(min_value=1, max_value=40),
                        min_size=len(sizes), max_size=len(sizes), unique=True))
    seqs = iter(draw(st.permutations(range(1, sum(sizes) + 1))))
    ring = tuple(f"g{k}" for k in ids)
    return RotationState(
        ring=ring,
        members=tuple(tuple(WorkerId(f"w{s}", s) for s in
                            (next(seqs) for _ in range(size)))
                      for size in sizes),
        current=draw(st.sampled_from(ring)),
        step_index=0,
        used_group_ids=frozenset(ring),
        next_seq=sum(sizes) + 1,
    )


@st.composite
def tied_donors(draw):
    """(state, deficient group) on an even ring where every group nearer
    than h hops has one member and the two groups h hops away, one on each
    side, have 2 to 4: for a donor floor of 2 the scan order alone picks
    between them, whether they share a size class or not."""
    m = 2 * draw(st.integers(min_value=2, max_value=4))
    i = draw(st.integers(min_value=0, max_value=m - 1))
    h = draw(st.integers(min_value=1, max_value=m // 2 - 1))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=m, max_size=m))
    for k in range(1, h):
        sizes[(i - k) % m] = sizes[(i + k) % m] = 1
    for k in (i - h, i + h):
        sizes[k % m] = draw(st.integers(min_value=2, max_value=4))
    state = draw(scrambled_states(sizes=sizes))
    return state, state.ring[i]


choose_kinds = st.sampled_from(["farthest", "concentrated", "balanced", "hybrid"])
find_orders = st.sampled_from(["pred-first", "succ-first"])
ds = st.integers(min_value=1, max_value=3)


def assert_transition_contract(before, published, log):
    """Published state is valid, follows its predecessor, and its change
    log replays to it exactly."""
    assert check_state(published).ok
    assert validate_pair(before, published).ok
    replayed = replay_entries(state_snapshot(before),
                              [e.to_dict() for e in log])
    assert replayed == state_snapshot(published)


@given(states())
def test_counters_are_a_bijection(state):
    assert sorted(counter_of_group(state, g) for g in state.ring) == \
        list(range(state.m))


@given(scrambled_states(), choose_kinds, ds)
@settings(max_examples=300)
def test_choose_group_matches_oracle(state, kind, d):
    plain = to_plain(state)
    assert choose_group(Workspace(state), OperatorPolicy(d=d), kind) == oracle_choose(
        plain["ring"], plain["members"], plain["current"], kind, d)


@given(st.data(), find_orders, ds, st.booleans(), st.booleans())
@settings(max_examples=400)
def test_find_donor_matches_oracle(data, order, d, floor_only, explicit_guard):
    """Both scan orders, donor floors 2 and d+1, and the just-performed
    guard: as at the start of a batch (the current group's workers,
    protecting its successor) or with tainted workers spread over the
    ring and any group protected, as inside a batch.  Half the states
    put the two nearest donors at equal distance on either side."""
    if data.draw(st.booleans()):
        state, deficient = data.draw(tied_donors())
    else:
        state = data.draw(scrambled_states())
        deficient = data.draw(st.sampled_from(state.ring))
    plain = to_plain(state)
    ring, current = plain["ring"], plain["current"]
    ws = Workspace(state)
    if explicit_guard:
        tainted = frozenset(data.draw(st.sets(st.sampled_from(sorted(state.tokens())))))
        protected = data.draw(st.sampled_from([deficient, *state.ring]))
        ws.tainted, ws.protected = tainted, protected
    else:  # the reference derives the start-of-batch guard itself
        tainted = {tok for tok, _ in plain["members"][current]}
        protected = ring[(ring.index(current) + 1) % len(ring)]
    min_size = 2 if floor_only else d + 1
    got = find_donor(ws, deficient, order, min_size)
    want = _scan_donor(ring, plain["members"], deficient, min_size, order, None,
                       tainted, protected)
    assert got == want


@given(st.data(), choose_kinds, find_orders, ds, st.sampled_from([1, 2, None]),
       st.sampled_from([2, 3]))
@settings(max_examples=400, deadline=None)
def test_next_state_matches_oracle_at_any_horizon(data, choose, order, d, horizon,
                                                  mult):
    """One arrival or departure on a run-like state, against the reference
    transition, which still scans for a donor within ``horizon`` hops and
    widens to the whole ring on a miss: the one whole-ring scan of the
    package must publish the same state (or stall) at every horizon."""
    state = data.draw(scrambled_states())
    if data.draw(st.booleans()):
        event = ("arrive", "a1")
    else:
        event = ("depart", data.draw(st.sampled_from(sorted(state.tokens()))))
    try:
        out, _ = next_state(state, OperatorPolicy(d=d, max_multiplier=mult),
                            StrategySet(choose=choose, find_order=order),
                            [WorkerEvent(1.0, *event)])
        got = to_plain(out)
    except StallError:
        got = "stall"
    verdict, want = oracle_next(to_plain(state), event, d, choose, order,
                                horizon=horizon, max_multiplier=mult)
    assert got == (want if verdict == "ok" else "stall")


@given(runs())
def test_published_workers_have_distinct_sequence_numbers(record):
    for state in record.states:
        seqs = [w.seq for ms in state.members for w in ms]
        assert len(set(seqs)) == len(seqs)


@given(states(), choose_kinds, ds)
def test_insert_preserves_validity(state, choose, d):
    policy = OperatorPolicy(d=d)
    strat = StrategySet(choose=choose)
    out, log = on_workspace(insert_worker, state, policy, strat, "a1")
    assert check_state(out).ok
    assert out.n == state.n + 1
    assert_transition_contract(state, advance_current(out), log)


@given(states(), find_orders, ds, st.integers(min_value=1, max_value=13))
def test_remove_preserves_validity_or_stalls(state, order, d, pick):
    policy = OperatorPolicy(d=d)
    strat = StrategySet(choose="balanced", find_order=order)
    tokens = sorted(state.tokens())
    token = tokens[pick % len(tokens)]
    try:
        out, log = next_state(state, policy, strat, [WorkerEvent(1.0, "depart", token)])
    except StallError:
        return
    assert check_state(out).ok
    assert out.n == state.n - 1
    assert_transition_contract(state, out, log)


@st.composite
def batches(draw, state):
    """Mixed arrival/departure batches consistent with the state."""
    present = sorted(state.tokens())
    ops = []
    fresh = 0
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if present and draw(st.booleans()):
            victim = present.pop(draw(st.integers(0, len(present) - 1)))
            ops.append(("depart", victim))
        else:
            fresh += 1
            name = f"a{fresh}"
            present.append(name)
            ops.append(("arrive", name))
    return [WorkerEvent(float(i + 1), op, w) for i, (op, w) in enumerate(ops)]


@given(st.data(), ds, choose_kinds, find_orders)
@settings(max_examples=150, deadline=None)
def test_batches_publish_valid_following_states(data, d, choose, order):
    state = data.draw(states())
    batch = data.draw(batches(state))
    policy = OperatorPolicy(d=d)
    strat = StrategySet(choose=choose, find_order=order)
    try:
        published, log = next_state(state, policy, strat, batch)
    except StallError:
        return
    assert_transition_contract(state, published, log)
    # worker conservation: roster after = roster before +- batch effects
    expected = set(state.tokens())
    for ev in batch:
        if ev.op == "arrive":
            expected.add(ev.worker)
        else:
            expected.discard(ev.worker)
    assert published.tokens() == expected
    # floor holds whenever the pool allows it
    if published.n >= 2 * d:
        assert all(len(ms) >= d for ms in published.members)


@given(st.lists(st.floats(min_value=0, max_value=100,
                          allow_nan=False), min_size=0, max_size=30),
       st.floats(min_value=0, max_value=100, allow_nan=False),
       st.floats(min_value=0, max_value=100, allow_nan=False))
def test_partition_events_window(times, a, b):
    lo, hi = min(a, b), max(a, b)
    events = [WorkerEvent(t, "arrive", f"w{i}")
              for i, t in enumerate(sorted(times))]
    got = partition_events(events, lo, hi)
    assert got == [e for e in events if lo < e.t <= hi]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_trace_roundtrips(seed):
    from grtc import TraceConfig, generate_trace
    config = TraceConfig(seed=seed, duration=60, arrival_rate=0.9,
                         departure_rate=0.15, initial_workers=4)
    roster, events = generate_trace(config)
    buf = io.StringIO()
    write_trace(buf, roster, events)
    buf.seek(0)
    assert read_trace(buf) == (roster, events)


# -- the workspace's indexes ----------------------------------------------

def assert_indexes_rebuilt(ws, roster):
    """The workspace's indexes equal a from-scratch rebuild of its lists,
    it holds exactly ``roster``, and its snapshot is a valid ring
    (an emptied group is the one thing a batch may leave to its end)."""
    assert len(ws.members) == len(ws.ring)
    assert ws.pos == {g: k for k, g in enumerate(ws.ring)}
    assert ws.group == {w.token: g for g, ms in zip(ws.ring, ws.members) for w in ms}
    by_size = {}
    for k, ms in enumerate(ws.members):
        by_size.setdefault(len(ms), []).append(k)
    assert ws.by_size == by_size
    assert set(ws.group) == roster
    assert check_state(snapshot(ws)).codes() <= {Code.EMPTY_GROUP}


def drive_workspace(state, policy, strat, steps):
    """Apply ``steps`` to workspaces the way ``next_state`` batches do,
    checking the indexes after every operation.  A step is ("arrive", _),
    ("depart", pick), which removes the present worker ``pick`` (mod the
    pool), or ("publish", _), which reconciles and publishes, and
    starts the next batch from the result when it is publishable, else
    from the last published state (dropping the batch, as a stall does).
    Returns every change-log entry made and the number of donations that
    left their donor below the floor (the emergency donation)."""
    published = state
    ws = Workspace(state)
    roster = set(ws.group)
    entries, fresh, emergencies = [], 0, 0
    for op, pick in steps:
        done = len(ws.log)
        if op == "arrive":
            fresh += 1
            token = f"a{fresh}"
            insert_worker(ws, policy, strat, token)
            roster.add(token)
        elif op == "depart" and roster:
            token = sorted(roster)[pick % len(roster)]
            remove_worker(ws, policy, strat, token)
            roster.discard(token)
        elif op == "publish":
            reconcile(ws, policy, strat)
        else:
            continue
        log = ws.log[done:]
        assert_indexes_rebuilt(ws, roster)
        emergencies += sum(isinstance(e, Donated) and e.from_group in ws.pos
                           and len(ws.members_of(e.from_group)) < policy.d for e in log)
        entries.extend(log)
        if op == "publish":
            candidate = ws.publish()
            floor = policy.d if candidate.n >= 2 * policy.d else 1
            below = [g for g, ms in zip(candidate.ring, candidate.members) if len(ms) < floor]
            valid = (check_state(candidate).ok and not below
                     and validate_pair(published, candidate).ok)
            fault = _publish_fault(ws, policy)  # the publish test reads indexes
            assert (fault is None) == valid
            if below:  # the floor fails first, and the message names every group below it
                assert fault == f"groups {below} are below the floor d={floor}"
            if valid:
                published = candidate
            ws = Workspace(published)
            roster = set(ws.group)
    return entries, emergencies


all_choose_kinds = st.sampled_from(CHOOSE_KINDS)
churn = st.lists(st.tuples(st.sampled_from(["arrive", "depart", "depart", "publish"]),
                           st.integers(min_value=0, max_value=63)), max_size=40)


@given(scrambled_states(max_size=4), ds, st.sampled_from([2, 3]), all_choose_kinds,
       find_orders, churn)
@settings(max_examples=300, deadline=None)
def test_workspace_indexes_match_a_rebuild(state, d, mult, choose, order, steps):
    drive_workspace(state, OperatorPolicy(d=d, max_multiplier=mult),
                    StrategySet.seeded(choose, order, 0), steps)


def transition(state, policy, strat, batch):
    """``next_state``'s outcome as data: the published state with its
    bookkeeping and log, or the stall message."""
    try:
        out, log = next_state(state, policy, strat, batch)
    except StallError as e:
        return str(e)
    return out, out.used_group_ids, out.next_seq, log


@given(run_inputs())
@settings(max_examples=200, deadline=None)
def test_carried_indexes_change_no_transition(inputs):
    """From each state a run publishes, its next batch gives the same
    state and log, or the same stall, whether the state carries the
    indexes of the workspace that published it or is built afresh; the
    carried indexes equal a rebuild, and the run's record keeps none."""
    initial, policy, strat, schedule, events = inputs
    record = run_rotation(initial, policy, copy.deepcopy(strat), schedule, events)
    current, backlog, t_prev = initial, [], 0.0
    published = [initial]
    for t in schedule.times:
        batch = backlog + partition_events(events, t_prev, t)
        t_prev = t
        want = transition(afresh(current), policy, copy.deepcopy(strat), batch)
        got = transition(current, policy, strat, batch)
        assert got == want
        if isinstance(got, str):
            backlog = batch
            continue
        current, backlog = got[0], []
        rebuilt = Workspace(afresh(current))
        assert current.indexes == (rebuilt.pos, rebuilt.group, rebuilt.by_size)
        published.append(current)
    assert record.states == published
    assert [s.indexes for s in record.states] == [None] * len(published)


def test_workspace_churn_reaches_every_repair():
    """Churn like the test above splits, joins and donates at every d, and
    at d >= 2 also donates in an emergency and enters degraded mode.  (At
    d = 1 neither exists: an emergency donor keeps its one member, and a
    pool of n < 2 cannot fill two groups.)"""
    rng = random.Random("workspace-churn")
    ops = ["arrive", "depart", "depart", "publish"]
    for d in (1, 2, 3):
        seen, emergencies = set(), 0
        for k in range(60):
            policy = OperatorPolicy(d=d, max_multiplier=rng.choice([2, 3]))
            strat = StrategySet.seeded(rng.choice(CHOOSE_KINDS), rng.choice(FIND_ORDERS), k)
            state = build_initial_state([f"w{i}" for i in range(rng.randint(2, 12))], policy)
            steps = [(rng.choice(ops), rng.randrange(64)) for _ in range(40)]
            entries, n = drive_workspace(state, policy, strat, steps)
            seen |= {type(e).__name__ for e in entries}
            emergencies += n
        assert {"Split", "Joined", "Donated"} <= seen, (d, seen)
        if d >= 2:
            assert "DegradedEntered" in seen and emergencies, (d, seen, emergencies)

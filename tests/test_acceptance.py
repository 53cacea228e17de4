"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The shared corpus
(criteria 1, 3, 4, 5) is 1000 trace-driven runs over stationary regimes
(arrival rate = departure rate x pool size) spanning pools of roughly
4 to 100 workers, every d in {1, 2, 3}, every choose strategy and both
scan orders.
"""

import itertools
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from grtc import (
    OperatorPolicy,
    RotationState,
    StallError,
    StrategySet,
    StressWeights,
    TaskSchedule,
    TraceConfig,
    WorkerEvent,
    build_initial_state,
    generate_trace,
    next_state,
    record_to_dict,
    run_rotation,
    summarize_run,
    validate_record,
)
from grtc.metrics import transition_stress
from grtc.state import (
    WorkerId,
    Workspace,
    advance_current,
    build_state,
    counter_of_group,
    validate_pair,
)
from grtc.strategies import choose_group
sys.path.insert(0, str(Path(__file__).parent))
from oracle import oracle_choose, oracle_next, oracle_report, to_plain  # noqa: E402


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- shared corpus (criteria 1, 3, 4, 5) -----------------------------------

POOLS = [4, 6, 10, 16, 25, 40, 60, 100]
DS = [1, 2, 3]
CHOOSES = ["random", "farthest", "concentrated", "balanced", "hybrid"]
ORDERS = ["pred-first", "succ-first"]
DEPARTURE_RATES = [0.02, 0.04, 0.08]


def corpus_params(seed):
    return {
        "n0": POOLS[seed % len(POOLS)],
        "d": DS[seed % len(DS)],
        "choose": CHOOSES[seed % len(CHOOSES)],
        "order": ORDERS[seed % len(ORDERS)],
        "lam_d": DEPARTURE_RATES[seed % len(DEPARTURE_RATES)],
    }


@pytest.fixture(scope="session")
def corpus():
    """Stream 1000 runs, accumulating every corpus-wide measure in one pass."""
    t0 = time.time()
    stats = {
        "runs": 0, "states": 0, "transitions": 0, "stall_intervals": 0,
        "validator_violations": 0, "floor_exceptions": 0,
        "follows_overlap_exceptions": 0, "follows_gone_exceptions": 0,
        "empty_log_transitions": 0, "purity_violations": 0,
        "degraded_states": 0, "report_mismatches": 0,
    }
    weights = StressWeights()
    for seed in range(1, 1001):
        p = corpus_params(seed)
        policy = OperatorPolicy(d=p["d"])
        strategies = StrategySet.seeded(p["choose"], p["order"], seed)
        trace_config = TraceConfig(
            seed=seed, duration=50.0,
            arrival_rate=p["lam_d"] * p["n0"],   # stationary: E[n] = n0
            departure_rate=p["lam_d"], initial_workers=p["n0"])
        roster, events = generate_trace(trace_config)
        initial = build_initial_state(roster, policy)
        record = run_rotation(initial, policy, strategies,
                              TaskSchedule.periodic(1.0, 50), events,
                              config={"d": p["d"], "seed": seed})
        doc = record_to_dict(record)

        stats["runs"] += 1
        stats["states"] += len(doc["states"])
        stats["transitions"] += len(doc["change_logs"])
        stats["stall_intervals"] += len(doc["stalls"])

        # criterion 1: the independent validator sees no violations
        stats["validator_violations"] += len(validate_record(doc).violations)
        # and the report fold agrees with the oracle's, float text included
        if json.dumps(summarize_run(record, weights)) != json.dumps(oracle_report(doc, weights)):
            stats["report_mismatches"] += 1

        # criterion 3: direct floor census on the serialized snapshots
        for snap in doc["states"]:
            sizes = [len(snap["members"][g]) for g in snap["ring"]]
            n = sum(sizes)
            if n >= 2 * p["d"] and min(sizes) < p["d"]:
                stats["floor_exceptions"] += 1
            if n < 2 * p["d"]:
                stats["degraded_states"] += 1

        # criterion 4: direct follows census on consecutive snapshots
        for prev, nxt in zip(doc["states"], doc["states"][1:]):
            old_current = prev["current"]
            old = set(prev["members"][old_current])
            new = set(nxt["members"][nxt["current"]])
            if old & new:
                stats["follows_overlap_exceptions"] += 1
            if old_current not in nxt["ring"]:
                stats["follows_gone_exceptions"] += 1

        # criterion 5: transitions with an empty change log carry no stress
        for i, log in enumerate(record.change_logs):
            if log == ():
                stats["empty_log_transitions"] += 1
                stresses = transition_stress(record.states[i],
                                             record.states[i + 1], weights, log)
                if any(s["stress"] != 0 for s in stresses.values()):
                    stats["purity_violations"] += 1
    stats["elapsed"] = time.time() - t0
    return stats


def test_criterion_1_rotation_validity(corpus):
    ok = (corpus["runs"] == 1000 and corpus["validator_violations"] == 0
          and corpus["report_mismatches"] == 0)
    report(1, ok,
           f"{corpus['runs']} runs / {corpus['states']} states validated, "
           f"{corpus['validator_violations']} violations, "
           f"{corpus['report_mismatches']} reports unlike the oracle's, "
           f"{corpus['stall_intervals']} stall intervals, "
           f"{corpus['elapsed']:.1f}s elapsed")


def test_criterion_2_worked_example_fixture():
    state = build_state(
        [("g1", ["w1", "w2", "w3"]), ("g2", ["w4", "w5"]),
         ("g3", ["w6", "w7", "w8", "w9"])], current="g1")
    ok = isinstance(state, RotationState)
    counters = None
    pair_ok = advanced_ok = False
    if ok:
        counters = tuple(counter_of_group(state, g) for g in ("g1", "g2", "g3"))
        nxt = advance_current(state)
        advanced_ok = nxt.current == "g2"
        pair_ok = validate_pair(state, nxt).ok
        ok = (state.n == 9 and state.m == 3 and counters == (0, 1, 2)
              and advanced_ok and pair_ok)
    report(2, ok,
           f"9-worker fixture builds, counters {counters}, advance to g2: "
           f"{advanced_ok}, follows: {pair_ok}")


def test_criterion_3_floor_feasibility(corpus):
    report(3, corpus["floor_exceptions"] == 0,
           f"{corpus['states']} states checked, "
           f"{corpus['floor_exceptions']} floor exceptions "
           f"({corpus['degraded_states']} legally degraded states with n < 2d)")


def test_criterion_4_follows_constraints(corpus):
    bad = corpus["follows_overlap_exceptions"] + corpus["follows_gone_exceptions"]
    report(4, bad == 0,
           f"{corpus['transitions']} transitions checked, "
           f"{corpus['follows_overlap_exceptions']} overlap / "
           f"{corpus['follows_gone_exceptions']} eliminated-current exceptions")


def test_criterion_5_zero_stress_purity(corpus):
    report(5, corpus["purity_violations"] == 0,
           f"{corpus['empty_log_transitions']} no-change transitions, "
           f"{corpus['purity_violations']} with nonzero stress")


# -- criterion 6: exhaustive oracle equivalence ------------------------------

def enumerate_states(n, m, first):
    """Every assignment of workers w1..wn to m ring positions (none empty)
    that puts w1 in position ``first``, canonical: ids g1..gm in ring
    order, current g1, members by seniority.  Over first = 0..m-1 in
    turn, this is every such assignment in ``itertools.product`` order."""
    ring = tuple(f"g{k + 1}" for k in range(m))
    used = frozenset(ring)
    for rest in itertools.product(range(m), repeat=n - 1):
        assignment = (first, *rest)
        if len(set(assignment)) != m:
            continue
        groups = [[] for _ in range(m)]
        for i, b in enumerate(assignment):
            groups[b].append(WorkerId(f"w{i + 1}", i + 1))
        yield RotationState(ring=ring, members=tuple(tuple(g) for g in groups),
                            current="g1", step_index=0,
                            used_group_ids=used, next_seq=n + 1)


def impl_single_event(state, policy, strategies, event):
    try:
        out, _ = next_state(state, policy, strategies,
                            [WorkerEvent(1.0, event[0], event[1])])
        return ("ok", to_plain(out))
    except StallError:
        return ("stall", None)


def outcomes_agree(got, want):
    """Same verdict; same state when both published (stall reasons are prose)."""
    if got[0] != want[0]:
        return False
    return got[0] != "ok" or got[1] == want[1]


# the census, in the order the cases are counted: n, then m, then the ring
# position of w1
CENSUS_SHARDS = [(n, m, first) for n in range(2, 9) for m in range(2, min(4, n) + 1)
                 for first in range(m)]


def census_shard(shard):
    """Criterion 6 over the states of ``enumerate_states(*shard)``: returns
    (cases, agreed stalls, mismatches, first mismatch or None)."""
    n, m, first = shard
    policies = {d: OperatorPolicy(d=d, max_multiplier=2) for d in (1, 2)}
    insert_strats = {kind: StrategySet(choose=kind, find_order="pred-first")
                     for kind in ("farthest", "concentrated", "balanced", "hybrid")}
    remove_strat = StrategySet(choose="balanced", find_order="pred-first")

    cases = mismatches = stalls = 0
    first_mismatch = None
    for state in enumerate_states(n, m, first):
        snap = to_plain(state)
        plain_members = snap["members"]
        ws = Workspace(state)  # choose_group reads it, never changes it
        for d in (1, 2):
            for i in range(1, n + 1):
                event = ("depart", f"w{i}")
                got = impl_single_event(state, policies[d], remove_strat, event)
                want = oracle_next(snap, event, d, "balanced", "pred-first")
                cases += 1
                stalls += got[0] == "stall" == want[0]
                if not outcomes_agree(got, want):
                    mismatches += 1
                    if first_mismatch is None:
                        first_mismatch = (snap, event, d, got, want)
            for kind, strat in insert_strats.items():
                if choose_group(ws, policies[d], kind) != \
                        oracle_choose(list(state.ring), plain_members,
                                      state.current, kind, d):
                    mismatches += 1
                event = ("arrive", "a1")
                got = impl_single_event(state, policies[d], strat, event)
                want = oracle_next(snap, event, d, kind, "pred-first")
                cases += 1
                stalls += got[0] == "stall" == want[0]
                if not outcomes_agree(got, want):
                    mismatches += 1
                    if first_mismatch is None:
                        first_mismatch = (snap, event, d, got, want)
    return cases, stalls, mismatches, first_mismatch


def test_criterion_6_oracle_equivalence():
    """The census runs in shards over a process pool.  ``map`` returns the
    shards' counts in census order, so the first mismatch reported is the
    one a single sequential loop would meet first.  Workers are spawned,
    not forked, and import this module afresh."""
    t0 = time.time()
    with ProcessPoolExecutor(max_workers=os.cpu_count(),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(census_shard, CENSUS_SHARDS))
    cases = sum(r[0] for r in results)
    stalls = sum(r[1] for r in results)
    mismatches = sum(r[2] for r in results)
    first_mismatch = next((r[3] for r in results if r[3] is not None), None)
    detail = (f"{cases} single-event cases (n<=8, m<=4, d<=2) compared against "
              f"the brute-force reference, {mismatches} mismatches, "
              f"{stalls} agreed stalls, {time.time() - t0:.0f}s")
    if first_mismatch:
        detail += f"; first: {first_mismatch}"
    report(6, mismatches == 0, detail)


# -- criterion 7: determinism -------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    from grtc.cli import main

    config = {
        "d": 2, "max_multiplier": 2, "choose": "random",
        "find": {"order": "pred-first", "horizon": "unlimited"},
        "weights": {"alpha": 1.0, "beta": 0.25, "gamma": 0.5},
        "seed": 99, "schedule": {"interval": 1.0, "count": 40},
        "initial": {"workers": 10},
    }
    trace_config = {"duration": 40, "arrival_rate": 0.5,
                    "departure_rate": 0.05, "initial_workers": 10}
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "trace.json").write_text(json.dumps(trace_config))

    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(["run", str(tmp_path / "config.json"),
                     "--trace-config", str(tmp_path / "trace.json"),
                     "--out", str(out)])
        assert code == 0
        blobs.append((out / "record.json").read_bytes()
                     + (out / "report.json").read_bytes())
    runs_identical = blobs[0] == blobs[1]

    spec = {
        "choose": ["balanced", "concentrated", "random"],
        "find_order": ["pred-first"], "horizon": ["unlimited"],
        "d": [2], "max_multiplier": [2], "seeds": [1, 2, 3, 4],
        "schedule": {"interval": 1.0, "count": 25},
        "trace": {"duration": 25, "arrival_rate": 0.5,
                  "departure_rate": 0.05, "initial_workers": 8},
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    csvs = []
    for name, jobs in (("s1", "1"), ("s2", "1"), ("s3", "4")):
        out = tmp_path / name
        code = main(["sweep", str(tmp_path / "spec.json"),
                     "--out", str(out), "--jobs", jobs])
        assert code == 0
        csvs.append((out / "sweep.csv").read_bytes())
    sweeps_identical = csvs[0] == csvs[1]
    parallel_identical = csvs[0] == csvs[2]

    report(7, runs_identical and sweeps_identical and parallel_identical,
           f"repeat run byte-identical: {runs_identical}, repeat sweep: "
           f"{sweeps_identical}, parallel sweep (4 jobs): {parallel_identical}")


# -- criterion 8: tradeoff direction ------------------------------------------

def test_criterion_8_tradeoff_direction():
    from grtc import summarize_run

    def mean_over_seeds(choose):
        ms, stresses = [], []
        for seed in range(1, 31):
            policy = OperatorPolicy(d=2)
            strategies = StrategySet.seeded(choose, "pred-first", seed)
            trace_config = TraceConfig(seed=seed, duration=200.0,
                                       arrival_rate=0.6, departure_rate=0.05,
                                       initial_workers=12)
            roster, events = generate_trace(trace_config)
            initial = build_initial_state(roster, policy)
            record = run_rotation(initial, policy, strategies,
                                  TaskSchedule.periodic(1.0, 200), events,
                                  config={"d": 2, "seed": seed})
            rep = summarize_run(record)
            ms.append(rep["mean_m"])
            stresses.append(rep["totals"]["stress"])
        return sum(ms) / len(ms), sum(stresses) / len(stresses)

    m_conc, s_conc = mean_over_seeds("concentrated")
    m_bal, s_bal = mean_over_seeds("balanced")
    ok = m_conc >= m_bal and s_conc >= s_bal
    report(8, ok,
           f"30-seed means (d=2, stationary regime): concentrated m={m_conc:.2f} "
           f"stress={s_conc:.1f} vs balanced m={m_bal:.2f} stress={s_bal:.1f}; "
           f"more groups and more stress under concentrated: {ok}")


# -- criterion 9: trace generator statistics ----------------------------------

def test_criterion_9_trace_statistics():
    inside = 0
    for seed in range(1, 201):
        config = TraceConfig(seed=seed, duration=1000.0, arrival_rate=1.0,
                             departure_rate=0.1, initial_workers=4)
        _, events = generate_trace(config)
        arrivals = sum(1 for e in events if e.op == "arrive")
        inside += abs(arrivals - 1000) <= 95
    report(9, inside >= 198,
           f"{inside}/200 seeds within 1000 +- 95 arrivals (3 sigma), "
           f"need >= 198")

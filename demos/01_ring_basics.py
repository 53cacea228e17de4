#!/usr/bin/env python3
"""Tour of the core state machinery: build a ring of worker groups,
read the countdown counters, rotate, and apply the structural operators
(split, join, donate) one at a time on a workspace.

Run: python3 demos/01_ring_basics.py
"""

from grtc import (
    OperatorPolicy,
    StrategySet,
    Workspace,
    advance_current,
    build_state,
    check_state,
    counter_of_group,
    counter_of_worker,
    donate_worker,
    join_groups,
    split_group,
    validate_pair,
)
from grtc.operators import BatchContext


def show(state, label):
    sizes = {g: len(state.members_of(g)) for g in state.ring}
    counters = {g: counter_of_group(state, g) for g in state.ring}
    print(f"{label}:")
    print(f"  ring      {' -> '.join(state.ring)} -> {state.ring[0]} ...")
    print(f"  current   {state.current}")
    print(f"  sizes     {sizes}")
    print(f"  counters  {counters}")


# Nine workers in three groups; workers in g1 are performing right now.
state = build_state(
    [("g1", ["w1", "w2", "w3"]),
     ("g2", ["w4", "w5"]),
     ("g3", ["w6", "w7", "w8", "w9"])],
    current="g1")
show(state, "initial state (d=2)")

# Every worker sees a countdown: how many tasks until their turn.
print(f"\n  w6 sits in g3, so their screen shows {counter_of_worker(state, 'w6')}")

# One task finishes; the next group takes over.
nxt = advance_current(state)
show(nxt, "\nafter one rotation step")
print(f"  the old/new state pair is a legal rotation step: "
      f"{validate_pair(state, nxt).ok}")
print(f"  w6's countdown ticked down to {counter_of_worker(nxt, 'w6')}")

# Structural surgery.  The operators change a Workspace, a mutable copy
# of one state, in place and return the change log; freezing the
# workspace gives the new state.  (A transition applies its whole batch
# of arrivals and departures to one workspace.)
policy = OperatorPolicy(d=2, max_multiplier=2)
strategies = StrategySet()

big = build_state(
    [("g1", ["w1", "w2", "w3", "w4", "w5"]),  # five members: above max(d)=4
     ("g2", ["w6", "w7"]),
     ("g3", ["w8", "w9"])],
    current="g1")
ws = Workspace(big)
log = split_group(ws, policy, strategies, "g1")
show(ws.freeze(), "\nafter splitting the oversized current group")
print(f"  change log: {[e.to_dict() for e in log]}")
print("  the senior half stays; the newest members moved into a fresh group")
print("  placed right behind the current group, so none of them performs next")

# A group that shrinks below d can absorb a neighbour...
small = build_state(
    [("g1", ["w1", "w2"]), ("g2", ["w3"]), ("g3", ["w4", "w5"]),
     ("g4", ["w6", "w7", "w8"])],
    current="g1")
# Join and donate take the batch's guard: the workers who just performed
# (g1's) must not move into the group that performs next (g2).
ws = Workspace(small)
guard = BatchContext.for_workspace(ws)
log = join_groups(ws, policy, "g2", guard)
show(ws.freeze(), "\nafter joining the one-member group with its successor")
print(f"  change log: {[e.to_dict() for e in log]}")

# ... or receive the newest worker of a group that can spare one
# (the donor must keep at least d members).
ws = Workspace(small)
log = donate_worker(ws, policy, "g4", "g2", guard)
show(ws.freeze(), "\nafter a donation instead of a join")
print(f"  change log: {[e.to_dict() for e in log]}")

# Validation is a value, not an exception: ask for the full report.
broken = build_state([("g1", ["w1", "w1"]), ("g2", [])], current="g9")
print(f"\nbuilding a broken state returns every violation at once:\n  {broken}")
print(f"\nand a valid state reports clean: {check_state(state)}")

#!/usr/bin/env python3
"""Tour of the core state machinery: build a ring of worker groups,
read the countdown counters, rotate, and apply the structural operators
(split, join, donate) one at a time on a workspace.

Run: python3 demos/01_ring_basics.py
"""

from grtc.errors import InvalidState
from grtc.operators import donate_worker, join_groups, split_group
from grtc.state import (
    Workspace,
    advance_current,
    build_state,
    check_state,
    counter_of_group,
    counter_of_worker,
    validate_pair,
)


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
# of one state, in place and append what they did to its change log
# (ws.log).  A workspace answers the same questions as a state, so
# ``show`` reads it directly; a transition applies its whole batch of
# arrivals and departures to one workspace and publishes the next state
# from it with ws.publish().  Called directly, as here, an operator
# trusts its caller: next_state splits only a group grown past the cap
# max(d) = 2d, and donates only from a donor that find_donor picked.
big = build_state(
    [("g1", ["w1", "w2", "w3", "w4", "w5"]),  # five members: above max(d)=4 for d=2
     ("g2", ["w6", "w7"]),
     ("g3", ["w8", "w9"])],
    current="g1")
ws = Workspace(big)
split_group(ws, "g1")
show(ws, "\nafter splitting the oversized current group")
print(f"  change log: {[e.to_dict() for e in ws.log]}")
print("  the senior half stays; the newest members moved into a fresh group")
print("  placed right behind the current group, so none of them performs next")

# A group that shrinks below d can absorb a neighbour...
small = build_state(
    [("g1", ["w1", "w2"]), ("g2", ["w3"]), ("g3", ["w4", "w5"]),
     ("g4", ["w6", "w7", "w8"])],
    current="g1")
# The workspace also holds the batch's guard: the workers who just
# performed (g1's) must not move into the group that performs next (g2).
ws = Workspace(small)
join_groups(ws, "g2")
show(ws, "\nafter joining the one-member group with its successor")
print(f"  change log: {[e.to_dict() for e in ws.log]}")

# ... or receive the newest worker of a group that can spare one
# (g4 keeps d=2 members).
ws = Workspace(small)
donate_worker(ws, "g4", "g2")
show(ws, "\nafter a donation instead of a join")
print(f"  change log: {[e.to_dict() for e in ws.log]}")

# Building a broken state raises InvalidState, which carries the full
# report; check_state returns the same report for any state.
try:
    build_state([("g1", ["w1", "w1"]), ("g2", [])], current="g9")
except InvalidState as e:
    print(f"\nbuilding a broken state reports every violation at once:\n  {e.report}")
print(f"\nand a valid state reports clean: {check_state(state)}")

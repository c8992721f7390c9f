"""Random *valid* fault-plan generation.

The soak harness (:mod:`repro.faults.soak`) and the hypothesis property
tests (``tests/property/test_fault_schedules.py``) share one notion of
"a random fault plan": a sequence of abstract steps
``(delta_ms, action, pid)`` folded through a state machine that skips
steps which would be invalid at that point (crash of an already-crashed
pid, a second overlapping partition, ...).  That keeps generators
exploring the space of *valid* schedules instead of mostly-rejected
ones, and it means a soak counterexample minimizes the same way a
hypothesis shrink does: by deleting steps.

``Step`` triples are plain data so they serialize alongside the plan in
counterexample artifacts.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Tuple

from repro.faults.plan import FaultPlan, PlanBuilder

#: One abstract plan step: (time since previous event in ms, action, pid).
Step = Tuple[int, str, int]

#: Every action :func:`build_plan` understands, in a fixed order so a
#: seeded RNG draws identically across runs and python versions.
ACTIONS: Tuple[str, ...] = (
    "crash",
    "recover",
    "partition",
    "heal",
    "token_drop",
    "loss_burst",
    "pause",
    "resume",
)

#: Bounds for the inter-step gap, milliseconds (matches the hypothesis
#: strategy in ``tests/property/test_fault_schedules.py``).
MIN_DELTA_MS = 5
MAX_DELTA_MS = 60

#: The action vocabulary for fabric (leaf–spine) soak runs: everything
#: above plus correlated rack failure.  A separate tuple — appending to
#: ``ACTIONS`` would shift every existing seeded draw stream.
FABRIC_ACTIONS: Tuple[str, ...] = ACTIONS + ("rack_power_loss",)


def build_plan(steps: Iterable[Step], num_hosts: int, racks: int = 0) -> FaultPlan:
    """Turn arbitrary abstract steps into a *valid* plan.

    Tracks the same state machine the validator enforces and skips steps
    that would be invalid at that point.  The mapping is deterministic:
    the same steps always produce the same plan.  ``racks > 0`` enables
    the ``rack_power_loss`` action (pid selects the rack, modulo), with
    hosts assigned rack-major as in
    :class:`~repro.net.fabric.LeafSpineSpec`.
    """
    builder = PlanBuilder()
    crashed = set()
    paused = set()
    partitioned = False
    at = 0.0
    for delta_ms, action, pid in steps:
        at += delta_ms / 1000.0
        if action == "rack_power_loss" and racks > 0:
            hosts_per_rack = num_hosts // racks
            if hosts_per_rack < 1:
                continue
            rack = pid % racks
            members = range(rack * hosts_per_rack, (rack + 1) * hosts_per_rack)
            fresh = [member for member in members if member not in crashed]
            if fresh:
                builder.rack_power_loss(rack, at=at, pids=fresh)
                crashed.update(fresh)
                paused.difference_update(fresh)
        elif action == "crash" and pid not in crashed:
            builder.crash(pid, at=at)
            crashed.add(pid)
            paused.discard(pid)
        elif action == "recover" and pid in crashed:
            builder.recover(pid, at=at)
            crashed.discard(pid)
        elif action == "partition" and not partitioned:
            # Clamp so both sides are non-empty whatever pid was drawn.
            split = max(1, min(pid, num_hosts - 1))
            builder.partition(set(range(split)), set(range(split, num_hosts)), at=at)
            partitioned = True
        elif action == "heal" and partitioned:
            builder.heal(at=at)
            partitioned = False
        elif action == "token_drop":
            builder.token_drop(at=at, count=1 + pid % 2)
        elif action == "loss_burst":
            builder.loss_burst(at=at, duration=0.03, rate=0.3, pids={pid})
        elif action == "pause" and pid not in paused and pid not in crashed:
            builder.pause(pid, at=at)
            paused.add(pid)
        elif action == "resume" and pid in paused:
            builder.resume(pid, at=at)
            paused.discard(pid)
    return builder.build(num_hosts=num_hosts)


def random_steps(
    rng: random.Random,
    num_hosts: int,
    max_steps: int = 8,
    actions: Sequence[str] = ACTIONS,
) -> List[Step]:
    """Draw a random abstract step sequence from a seeded RNG.

    The default ``actions`` keeps the historical draw stream; fabric
    soaks pass :data:`FABRIC_ACTIONS`.
    """
    count = rng.randint(0, max_steps)
    return [
        (
            rng.randint(MIN_DELTA_MS, MAX_DELTA_MS),
            rng.choice(actions),
            rng.randrange(num_hosts),
        )
        for _ in range(count)
    ]


def steps_from_lists(payload: Iterable[Sequence[object]]) -> List[Step]:
    """Steps from their JSON form, a list of ``[delta, action, pid]``."""
    return [(int(delta), str(action), int(pid)) for delta, action, pid in payload]

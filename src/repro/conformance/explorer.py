"""Harvested fault instants: the differential's schedule source.

``repro soak`` samples the fault-schedule space at random; this source
covers it *systematically* at small depth.  Fault instants are not drawn
from a grid but harvested from the protocol itself: a fault-free probe
run records the simulated times of ``on_token_received`` (and, under a
plan, ``on_fault``) observer events, and those instants — the moments
the protocol is actually doing something — anchor the schedules.  Every
combination of up to ``depth`` fault atoms at those instants is one
schedule; :func:`explore_instants` runs them through the one explorer
(:func:`repro.faults.explorer.explore`), which folds, dedups, budgets,
judges each with the differential oracle and shrinks divergences like
soak counterexamples.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence, Tuple

from repro.conformance.differ import ConformanceReport, run_differential
from repro.conformance.variants import run_variant
from repro.conformance.workload import Workload
from repro.faults.explorer import (
    ExplorationCase,
    ExplorationReport,
    Schedule,
    ScheduleSource,
    explore,
)
from repro.faults.generator import Step
from repro.faults.plan import FaultPlan
from repro.obs.observer import ProtocolObserver

#: One schedule atom: a fault ``action`` against ``pid`` at ``at_ms``
#: (milliseconds after traffic start).
Atom = Tuple[int, str, int]

#: Fault kinds the explorer schedules.  ``crash`` implies a recover
#: 60 ms later and ``pause`` a resume 15 ms later, so every schedule
#: exercises the fault *and* the matching repair path.
DEFAULT_ACTIONS: Tuple[str, ...] = ("token_drop", "crash", "pause", "loss_burst")

#: Fault kinds when the workload runs on a leaf–spine fabric: everything
#: above plus correlated rack failure (the pid selects the rack, modulo
#: the rack count, exactly as in the soak generator).  The quiesce phase
#: restarts every crashed pid, so rack losses converge like crashes.
FABRIC_EXPLORE_ACTIONS: Tuple[str, ...] = DEFAULT_ACTIONS + ("rack_power_loss",)

#: Follow-up delays (ms) for the paired repair steps.
_RECOVER_AFTER_MS = 60
_RESUME_AFTER_MS = 15

#: Default number of harvested instants kept as schedule anchors.
DEFAULT_MAX_INSTANTS = 4

#: Default cap on differential runs per exploration.
DEFAULT_BUDGET = 24


class InstantRecorder(ProtocolObserver):
    """Records when the protocol does something worth perturbing."""

    def __init__(self) -> None:
        self.token_times: List[float] = []
        self.fault_times: List[float] = []

    def on_token_received(self, pid, token, now=None):
        if now is not None:
            self.token_times.append(now)

    def on_fault(self, kind, detail=None, now=None):
        if now is not None:
            self.fault_times.append(now)


def harvest_instants(
    workload: Workload,
    seed: int = 0,
    max_instants: int = DEFAULT_MAX_INSTANTS,
    variant: str = "accelerated",
) -> List[int]:
    """Protocol-meaningful fault instants, in ms after traffic start.

    Runs the workload fault-free under an :class:`InstantRecorder` and
    keeps an even subsample of the token-arrival times that fall inside
    the main traffic window.  Anchoring schedules at token arrivals puts
    every fault where the protocol state machine is mid-flight instead
    of at arbitrary grid points.
    """
    recorder = InstantRecorder()
    run = run_variant(variant, workload, plan=None, seed=seed, observer=recorder)
    window_end = run.traffic_base + workload.traffic_span
    offsets = sorted(
        {
            int(round((moment - run.traffic_base) * 1000.0))
            for moment in recorder.token_times + recorder.fault_times
            if run.traffic_base <= moment <= window_end
        }
    )
    offsets = [offset for offset in offsets if offset > 0]
    if len(offsets) <= max_instants:
        return offsets
    stride = len(offsets) / max_instants
    return [offsets[int(index * stride)] for index in range(max_instants)]


def atom_steps(atom: Atom) -> List[Tuple[int, str, int]]:
    """Expand one atom into absolute-time (at_ms, action, pid) events."""
    at_ms, action, pid = atom
    if action == "crash":
        return [(at_ms, "crash", pid), (at_ms + _RECOVER_AFTER_MS, "recover", pid)]
    if action == "pause":
        return [(at_ms, "pause", pid), (at_ms + _RESUME_AFTER_MS, "resume", pid)]
    return [(at_ms, action, pid)]


def schedule_to_steps(atoms: Sequence[Atom]) -> List[Step]:
    """Flatten a schedule of atoms into delta-encoded generator steps."""
    events = sorted(
        (event for atom in atoms for event in atom_steps(atom)),
        key=lambda event: (event[0], event[1], event[2]),
    )
    steps: List[Step] = []
    previous = 0
    for at_ms, action, pid in events:
        steps.append((at_ms - previous, action, pid))
        previous = at_ms
    return steps


def enumerate_schedules(
    instants: Sequence[int],
    num_hosts: int,
    depth: int,
    actions: Sequence[str] = DEFAULT_ACTIONS,
    pids: Optional[Sequence[int]] = None,
) -> List[Tuple[Atom, ...]]:
    """Every schedule of 1..``depth`` atoms, in deterministic order."""
    targets = list(pids) if pids is not None else list(range(num_hosts))
    atoms = [
        (instant, action, pid)
        for instant in instants
        for action in actions
        for pid in targets
    ]
    schedules: List[Tuple[Atom, ...]] = []
    for size in range(1, depth + 1):
        schedules.extend(itertools.combinations(atoms, size))
    return schedules


def explore_instants(
    workload: Workload,
    depth: int = 2,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    variants: Sequence[str] = ("original", "accelerated"),
    actions: Sequence[str] = DEFAULT_ACTIONS,
    max_instants: int = DEFAULT_MAX_INSTANTS,
    pids: Optional[Sequence[int]] = None,
    minimize: bool = True,
    progress: Optional[Callable[[ExplorationReport, ExplorationCase], None]] = None,
) -> ExplorationReport:
    """Every schedule of up to ``depth`` atoms at the harvested instants
    through the one explorer, at most ``budget`` differential runs of
    ``variants``; a case's label is its atom list.  A fabric workload
    with the default ``actions`` adds ``rack_power_loss``."""
    racks = workload.fabric_racks
    if racks and tuple(actions) == DEFAULT_ACTIONS:
        actions = FABRIC_EXPLORE_ACTIONS
    instants = harvest_instants(workload, seed=seed, max_instants=max_instants)
    schedules = [
        Schedule(schedule_to_steps(atoms), seed, label=[list(atom) for atom in atoms])
        for atoms in enumerate_schedules(instants, workload.num_hosts, depth, actions, pids)
    ]
    params = {"workload": workload.to_dict(), "seed": seed, "depth": depth,
              "variants": list(variants), "instants": instants}
    source = ScheduleSource("instants", params, workload.num_hosts, schedules, racks)

    def oracle(plan: FaultPlan, seed: int, ring: int) -> ConformanceReport:
        return run_differential(workload, plan=plan, seed=seed, variants=variants)

    return explore(oracle, source, budget=budget, minimize=minimize, progress=progress)

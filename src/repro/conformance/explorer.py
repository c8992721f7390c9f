"""Bounded, systematic exploration of small fault schedules.

``repro soak`` samples the fault-schedule space at random; the explorer
covers it *systematically* at small depth.  Fault instants are not drawn
from a grid but harvested from the protocol itself: a fault-free probe
run records the simulated times of ``on_token_received`` (and, under a
plan, ``on_fault``) observer events, and those instants — the moments
the protocol is actually doing something — anchor the schedules.  Every
combination of up to ``depth`` fault atoms at those instants is
enumerated, folded through the same validity state machine the soak
generator uses (:func:`repro.faults.generator.build_plan`), deduplicated
by the resulting plan, and run through the differential oracle up to a
run budget.  Divergent schedules shrink with the same greedy minimizer
as soak counterexamples (:func:`repro.faults.soak.greedy_minimize`).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.conformance.coverage import CoverageReport
from repro.conformance.differ import ConformanceReport, run_differential
from repro.conformance.variants import run_variant
from repro.conformance.workload import Workload
from repro.faults.generator import (
    Step,
    build_plan,
    steps_from_lists,
    steps_to_lists,
)
from repro.faults.soak import greedy_minimize
from repro.obs.observer import ProtocolObserver
from repro.util.jsonreport import JsonReport

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


@dataclass
class ExplorationCase:
    """One schedule that diverged, shrunk to a minimal reproducer."""

    atoms: List[Atom]
    steps: List[Step]
    minimized_steps: List[Step]
    report: ConformanceReport

    def to_dict(self) -> Dict[str, Any]:
        return {
            "atoms": [list(atom) for atom in self.atoms],
            "steps": steps_to_lists(self.steps),
            "minimized_steps": steps_to_lists(self.minimized_steps),
            "report": self.report.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExplorationCase":
        return cls(
            atoms=[tuple(atom) for atom in payload.get("atoms", [])],
            steps=steps_from_lists(payload["steps"]),
            minimized_steps=steps_from_lists(payload["minimized_steps"]),
            report=ConformanceReport.from_dict(payload["report"]),
        )


@dataclass
class ExplorationReport(JsonReport):
    """Summary of one bounded exploration, JSON-ready for CI artifacts.

    ``enumerated``/``deduped``/``ran``/``skipped_budget`` account for
    every schedule: nothing is dropped silently — a schedule is either
    run, collapsed into an equivalent one, or explicitly counted against
    the budget.
    """

    workload: Workload
    seed: int
    depth: int
    budget: int
    variants: Tuple[str, ...]
    instants: List[int] = field(default_factory=list)
    enumerated: int = 0
    deduped: int = 0
    ran: int = 0
    skipped_budget: int = 0
    divergent: List[ExplorationCase] = field(default_factory=list)
    coverage: Optional[CoverageReport] = None

    @property
    def ok(self) -> bool:
        return not self.divergent

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload.to_dict(),
            "seed": self.seed,
            "depth": self.depth,
            "budget": self.budget,
            "variants": list(self.variants),
            "instants": list(self.instants),
            "enumerated": self.enumerated,
            "deduped": self.deduped,
            "ran": self.ran,
            "skipped_budget": self.skipped_budget,
            "ok": self.ok,
            "divergent": [case.to_dict() for case in self.divergent],
            "coverage": self.coverage.to_dict() if self.coverage else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExplorationReport":
        coverage = payload.get("coverage")
        report = cls(
            workload=Workload.from_dict(payload["workload"]),
            seed=int(payload["seed"]),
            depth=int(payload["depth"]),
            budget=int(payload["budget"]),
            variants=tuple(payload["variants"]),
            instants=[int(value) for value in payload.get("instants", [])],
            enumerated=int(payload.get("enumerated", 0)),
            deduped=int(payload.get("deduped", 0)),
            ran=int(payload.get("ran", 0)),
            skipped_budget=int(payload.get("skipped_budget", 0)),
            divergent=[
                ExplorationCase.from_dict(entry)
                for entry in payload.get("divergent", [])
            ],
        )
        if coverage:
            report.coverage = CoverageReport.from_dict(coverage)
        return report


def explore(
    workload: Workload,
    depth: int = 2,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    variants: Sequence[str] = ("original", "accelerated"),
    actions: Sequence[str] = DEFAULT_ACTIONS,
    max_instants: int = DEFAULT_MAX_INSTANTS,
    pids: Optional[Sequence[int]] = None,
    minimize: bool = True,
    progress: Optional[Callable[[int, int, bool], None]] = None,
) -> ExplorationReport:
    """Systematically test fault schedules up to ``depth`` atoms.

    Schedules whose folded plans coincide are run once; runs stop at
    ``budget`` differential runs, with the remainder counted in
    ``skipped_budget``.  ``progress`` is called after each run with
    ``(ran, total_candidates, diverged)``.
    """
    racks = workload.fabric_racks
    if racks and tuple(actions) == DEFAULT_ACTIONS:
        actions = FABRIC_EXPLORE_ACTIONS
    instants = harvest_instants(
        workload, seed=seed, max_instants=max_instants
    )
    report = ExplorationReport(
        workload=workload,
        seed=seed,
        depth=depth,
        budget=budget,
        variants=tuple(variants),
        instants=instants,
    )
    coverage = CoverageReport({})
    schedules = enumerate_schedules(
        instants, workload.num_hosts, depth, actions=actions, pids=pids
    )
    report.enumerated = len(schedules)
    seen: set = set()
    for atoms in schedules:
        steps = schedule_to_steps(atoms)
        plan = build_plan(steps, workload.num_hosts, racks=racks)
        signature = json.dumps(plan.to_dicts(), sort_keys=True)
        if signature in seen:
            report.deduped += 1
            continue
        seen.add(signature)
        if report.ran >= budget:
            report.skipped_budget += 1
            continue
        case_report = run_differential(
            workload, plan=plan, seed=seed, variants=variants
        )
        report.ran += 1
        if case_report.coverage is not None:
            coverage = coverage.merge(case_report.coverage)
        if not case_report.ok:
            minimized = steps
            if minimize:

                def still_diverges(candidate: List[Step]) -> bool:
                    candidate_plan = build_plan(
                        candidate, workload.num_hosts, racks=racks
                    )
                    return not run_differential(
                        workload,
                        plan=candidate_plan,
                        seed=seed,
                        variants=variants,
                    ).ok

                minimized = greedy_minimize(steps, still_diverges)
            report.divergent.append(
                ExplorationCase(
                    atoms=list(atoms),
                    steps=steps,
                    minimized_steps=minimized,
                    report=case_report,
                )
            )
        if progress is not None:
            progress(report.ran, min(len(seen), budget), not case_report.ok)
    report.coverage = coverage
    return report

"""Randomized soak testing for the membership/recovery protocol.

A soak run generates N seeded random fault plans
(:mod:`repro.faults.generator`), drives each through a live
:class:`~repro.sim.membership_driver.MembershipCluster` with traffic
spread over the chaos window, and checks every delivery trace against
the full EVS property suite.  The output is a JSON
:class:`SoakReport`; every failing case additionally produces a
:class:`Counterexample` artifact — a *minimized*, replayable fault plan
plus the exact seed — so a violation found at 3am by the nightly CI job
reproduces with one command::

    python -m repro soak --replay counterexample_17.json

Everything is deterministic: case ``index`` of a soak with seed ``S``
always generates the same plan and the same injector randomness, on any
machine.  Minimization is greedy single-step deletion over the abstract
pre-validation steps (the same shrink direction hypothesis uses), so the
artifact is usually a small handful of events rather than the full
random schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.messages import DeliveryService
from repro.faults.drive import boot
from repro.faults.generator import (
    ACTIONS,
    FABRIC_ACTIONS,
    Step,
    build_plan,
    random_steps,
    steps_from_lists,
    steps_to_lists,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.build import ClusterBuilder
from repro.sim.membership_driver import MembershipCluster
from repro.util.jsonreport import JsonReport

#: Spread between the top-level soak seed and per-case seeds; a large
#: prime so nearby soak seeds do not share case streams.
_SEED_STRIDE = 1_000_003

#: Deterministic traffic injected while the chaos window is open.
_TRAFFIC_MESSAGES = 6
_TRAFFIC_PAYLOAD = 64


def case_seed(seed: int, index: int) -> int:
    """The derived seed for case ``index`` of a soak with ``seed``."""
    return seed * _SEED_STRIDE + index


def drive_plan(
    plan: FaultPlan,
    num_hosts: int,
    seed: int,
    fabric_racks: int = 0,
    impair: Optional[str] = None,
) -> MembershipCluster:
    """Run ``plan`` against a fresh cluster and return it (traces full).

    This is the canonical soak drive, shared with the hypothesis suite in
    ``tests/property/test_fault_schedules.py``: boot, arm the injector,
    submit deterministic traffic spread over the chaos window (alternating
    Safe/Agreed from rotating senders), then quiesce — heal, resume, and
    settle — so the checker sees completed recoveries, not mid-flight
    state.

    ``fabric_racks > 0`` builds the cluster on a leaf–spine fabric
    (2:1 oversubscribed, ``num_hosts`` split evenly across the racks);
    ``impair`` names an impairment preset
    (:func:`repro.net.impair.impairment_from_name`) seeded from the
    case seed.  Both default off, keeping the historical drive.
    """
    cluster = (
        ClusterBuilder()
        .hosts(num_hosts)
        .membership()
        .adverse_network(fabric_racks, impair, seed=seed)
        .build_membership()
    )
    base = boot(cluster)
    FaultInjector(cluster, plan, rng=random.Random(seed)).arm()
    horizon = plan.horizon + 0.05
    for index in range(_TRAFFIC_MESSAGES):
        when = base + (index + 1) * horizon / (_TRAFFIC_MESSAGES + 1)
        pid = index % num_hosts
        service = DeliveryService.SAFE if index % 2 else DeliveryService.AGREED

        def submit(pid=pid, service=service):
            if cluster.accepting(pid):
                cluster.hosts[pid].submit(
                    payload_size=_TRAFFIC_PAYLOAD, service=service
                )

        cluster.sim.schedule_at(when, submit)
    cluster.run(horizon + 0.1)
    # Quiesce and settle for a fixed 1.5 s, converged or not: crashes the
    # plan never recovers stay down, waived by the checker.
    cluster.quiesce()
    cluster.run(1.5)
    return cluster


def check_plan(
    plan: FaultPlan,
    num_hosts: int,
    seed: int,
    fabric_racks: int = 0,
    impair: Optional[str] = None,
) -> Optional[str]:
    """Drive ``plan`` and EVS-check the traces.

    Returns ``None`` when every guarantee holds, or the violation message
    when one does not.  Crashed pids are waived exactly as the property
    suite waives them.
    """
    cluster = drive_plan(
        plan,
        num_hosts=num_hosts,
        seed=seed,
        fabric_racks=fabric_racks,
        impair=impair,
    )
    return cluster.checker.violation(crashed=plan.crashed_pids())


def greedy_minimize(items: List, still_fails: Callable[[List], bool]) -> List:
    """Greedy single-deletion shrinking of a failing item sequence.

    Repeatedly deletes single items as long as ``still_fails`` holds for
    the shortened sequence (the same shrink direction hypothesis uses).
    The result is a local minimum: removing any one remaining item makes
    the failure disappear.  Shared by the soak minimizer and the
    conformance explorer (:mod:`repro.conformance.explorer`), which
    plug in their respective failure predicates.
    """
    current = list(items)
    shrunk = True
    while shrunk:
        shrunk = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1 :]
            if still_fails(candidate):
                current = candidate
                shrunk = True
                break
    return current


def minimize_steps(
    steps: List[Step],
    num_hosts: int,
    seed: int,
    fabric_racks: int = 0,
    impair: Optional[str] = None,
) -> List[Step]:
    """Greedily shrink a failing step sequence.

    Because :func:`build_plan` folds any step sequence through the
    validity state machine, every candidate subsequence yields a valid
    plan — no repair pass needed.
    """

    def still_fails(candidate: List[Step]) -> bool:
        plan = build_plan(candidate, num_hosts, racks=fabric_racks)
        return (
            check_plan(
                plan,
                num_hosts=num_hosts,
                seed=seed,
                fabric_racks=fabric_racks,
                impair=impair,
            )
            is not None
        )

    return greedy_minimize(steps, still_fails)


@dataclass
class Counterexample(JsonReport):
    """A replayable failing soak case.

    ``steps``/``minimized_steps`` are the abstract pre-validation step
    triples; ``plan`` is the minimized plan's event list (what actually
    replays).  ``to_json``/``from_json`` round-trip the artifact file.
    """

    soak_seed: int
    index: int
    seed: int
    num_hosts: int
    violation: str
    steps: List[Step]
    minimized_steps: List[Step]
    #: The soak's topology dimension; needed for a faithful replay.
    fabric_racks: int = 0
    impair: Optional[str] = None

    @property
    def plan(self) -> FaultPlan:
        return build_plan(
            self.minimized_steps, self.num_hosts, racks=self.fabric_racks
        )

    def replay(self) -> Optional[str]:
        """Re-run the minimized plan; returns the violation (or ``None``
        if the failure no longer reproduces)."""
        return check_plan(
            self.plan,
            num_hosts=self.num_hosts,
            seed=self.seed,
            fabric_racks=self.fabric_racks,
            impair=self.impair,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "soak_seed": self.soak_seed,
            "index": self.index,
            "seed": self.seed,
            "num_hosts": self.num_hosts,
            "fabric_racks": self.fabric_racks,
            "impair": self.impair,
            "violation": self.violation,
            "steps": steps_to_lists(self.steps),
            "minimized_steps": steps_to_lists(self.minimized_steps),
            "plan": self.plan.to_dicts(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Counterexample":
        impair = payload.get("impair")
        return cls(
            soak_seed=int(payload["soak_seed"]),
            index=int(payload["index"]),
            seed=int(payload["seed"]),
            num_hosts=int(payload["num_hosts"]),
            violation=str(payload["violation"]),
            steps=steps_from_lists(payload["steps"]),
            minimized_steps=steps_from_lists(payload["minimized_steps"]),
            fabric_racks=int(payload.get("fabric_racks", 0)),
            impair=None if impair is None else str(impair),
        )


@dataclass
class SoakCase:
    """One plan's outcome inside a soak report."""

    index: int
    seed: int
    events: int
    violation: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "index": self.index,
            "seed": self.seed,
            "events": self.events,
        }
        if self.violation is not None:
            payload["violation"] = self.violation
        return payload


@dataclass
class SoakReport(JsonReport):
    """Summary of a whole soak run, JSON-serializable for CI artifacts."""

    seed: int
    num_hosts: int
    plans: int
    max_steps: int
    fabric_racks: int = 0
    impair: Optional[str] = None
    cases: List[SoakCase] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return len(self.counterexamples)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "num_hosts": self.num_hosts,
            "plans": self.plans,
            "max_steps": self.max_steps,
            "fabric_racks": self.fabric_racks,
            "impair": self.impair,
            "failures": self.failures,
            "passed": self.passed,
            "cases": [case.to_dict() for case in self.cases],
            "counterexamples": [ce.to_dict() for ce in self.counterexamples],
        }


def run_soak(
    plans: int,
    num_hosts: int,
    seed: int,
    max_steps: int = 8,
    minimize: bool = True,
    fabric_racks: int = 0,
    impair: Optional[str] = None,
    progress: Optional[Callable[[SoakCase], None]] = None,
) -> SoakReport:
    """Run ``plans`` seeded random fault plans and EVS-check each one.

    Every case derives its own seed from ``(seed, index)`` via
    :func:`case_seed`, used both to generate the plan and to drive the
    injector, so any case replays standalone.  Failing cases are
    minimized (unless ``minimize=False``) and recorded as
    :class:`Counterexample` artifacts on the report.  ``progress`` is
    called after each case (CLI progress lines).

    ``fabric_racks > 0`` soaks on a leaf–spine fabric and widens the
    action vocabulary with correlated ``rack_power_loss`` events;
    ``impair`` layers a named impairment preset under every plan.
    """
    report = SoakReport(
        seed=seed,
        num_hosts=num_hosts,
        plans=plans,
        max_steps=max_steps,
        fabric_racks=fabric_racks,
        impair=impair,
    )
    actions = FABRIC_ACTIONS if fabric_racks else ACTIONS
    for index in range(plans):
        derived = case_seed(seed, index)
        rng = random.Random(derived)
        steps = random_steps(rng, num_hosts, max_steps=max_steps, actions=actions)
        plan = build_plan(steps, num_hosts, racks=fabric_racks)
        violation = check_plan(
            plan,
            num_hosts=num_hosts,
            seed=derived,
            fabric_racks=fabric_racks,
            impair=impair,
        )
        case = SoakCase(
            index=index, seed=derived, events=len(plan), violation=violation
        )
        report.cases.append(case)
        if violation is not None:
            minimized = (
                minimize_steps(
                    steps,
                    num_hosts=num_hosts,
                    seed=derived,
                    fabric_racks=fabric_racks,
                    impair=impair,
                )
                if minimize
                else list(steps)
            )
            report.counterexamples.append(
                Counterexample(
                    soak_seed=seed,
                    index=index,
                    seed=derived,
                    num_hosts=num_hosts,
                    violation=violation,
                    steps=list(steps),
                    minimized_steps=minimized,
                    fabric_racks=fabric_racks,
                    impair=impair,
                )
            )
        if progress is not None:
            progress(case)
    return report

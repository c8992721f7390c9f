"""Randomized soak testing for the membership/recovery protocol.

A soak run generates N seeded random fault plans
(:mod:`repro.faults.generator`) and runs them through the one explorer
(:mod:`repro.faults.explorer`): each drives a live
:class:`~repro.sim.membership_driver.MembershipCluster` with traffic
spread over the chaos window and checks every delivery trace against the
full EVS property suite.  The output is the explorer's JSON
:class:`~repro.faults.explorer.ExplorationReport`; every failing case
additionally produces a :class:`Counterexample` artifact — a
*minimized*, replayable fault plan plus the exact seed — so a violation
found at 3am by the nightly CI job reproduces with one command::

    python -m repro conformance replay counterexample_17.json

Everything is deterministic: case ``index`` of a soak with seed ``S``
always generates the same plan and the same injector randomness, on any
machine.  Minimization is greedy single-step deletion over the abstract
pre-validation steps (the same shrink direction hypothesis uses), so the
artifact is usually a small handful of events rather than the full
random schedule.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.messages import DeliveryService
from repro.faults.drive import boot
from repro.faults.explorer import (
    ExplorationCase,
    ExplorationReport,
    Schedule,
    ScheduleSource,
    explore,
)
from repro.faults.generator import (
    ACTIONS,
    FABRIC_ACTIONS,
    Step,
    build_plan,
    random_steps,
    steps_from_lists,
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
    def ok(self) -> bool:
        """A counterexample records a failure: read back, it is a FAIL."""
        return not self.violation

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
        return {**asdict(self), "plan": self.plan.to_dicts()}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Counterexample":
        fields = {key: value for key, value in payload.items() if key != "plan"}
        for key in ("steps", "minimized_steps"):
            fields[key] = steps_from_lists(fields[key])
        return cls(**fields)


@dataclass(frozen=True)
class Verdict:
    """The soak oracle's report: the EVS violation, or ``None``."""

    violation: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def to_dict(self) -> Dict[str, Any]:
        return {"ok": self.ok, "violation": self.violation}


def run_soak(
    plans: int,
    num_hosts: int,
    seed: int,
    max_steps: int = 8,
    minimize: bool = True,
    fabric_racks: int = 0,
    impair: Optional[str] = None,
    progress: Optional[Callable[[ExplorationReport, ExplorationCase], None]] = None,
) -> ExplorationReport:
    """Run ``plans`` seeded random fault plans and EVS-check each one.

    Case ``index`` draws its steps from, and drives its injector with,
    :func:`case_seed` ``(seed, index)``, so any case replays standalone
    (and none dedups).  :func:`counterexamples` turns the failures,
    minimized unless ``minimize=False``, into replayable artifacts.

    ``fabric_racks > 0`` soaks on a leaf–spine fabric and widens the
    action vocabulary with correlated ``rack_power_loss`` events;
    ``impair`` layers a named impairment preset under every plan.
    """
    actions = FABRIC_ACTIONS if fabric_racks else ACTIONS
    params = dict(seed=seed, num_hosts=num_hosts, plans=plans, max_steps=max_steps,
                  fabric_racks=fabric_racks, impair=impair)
    schedules = []
    for index in range(plans):
        derived = case_seed(seed, index)
        steps = random_steps(random.Random(derived), num_hosts, max_steps, actions)
        schedules.append(Schedule(steps, derived, label=index))

    def oracle(plan: FaultPlan, derived: int, ring: int) -> Verdict:
        return Verdict(
            check_plan(plan, num_hosts, derived, fabric_racks=fabric_racks, impair=impair)
        )

    source = ScheduleSource("soak", params, num_hosts, schedules, racks=fabric_racks)
    return explore(oracle, source, minimize=minimize, progress=progress)


def counterexamples(report: ExplorationReport) -> List[Counterexample]:
    """One replayable artifact per failing case of a soak report."""
    params = report.params
    return [
        Counterexample(
            params["seed"], case.label, case.seed, params["num_hosts"],
            case.report["violation"], case.steps, case.minimized_steps,
            fabric_racks=params["fabric_racks"], impair=params["impair"],
        )
        for case in report.failures
    ]

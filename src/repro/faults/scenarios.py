"""Named chaos scenarios with machine-checked outcomes.

Each scenario is a reproducible experiment: build a membership cluster,
arm a :class:`~repro.faults.plan.FaultPlan`, drive deterministic client
traffic through the chaos window, then (a) wait for the survivors to
re-converge to one operational ring and (b) run the full EVS checker
over every delivery trace.  The result is a :class:`ScenarioReport`
whose JSON form is byte-identical across runs with the same seed —
chaos runs are diffable artifacts, not flaky demos.

The library maps to the paper's robustness story:

* ``leader-crash`` / ``cascade`` — fail-stop + recovery (§II's failure
  model; the membership algorithm's gather/commit/recovery path).
* ``token-loss`` — lost token frames during the accelerated window,
  the event the token-loss timeout turns into a ring reformation.
* ``partition-heal`` — a symmetric 4/4 split of the 8-server testbed
  and its merge (EVS transitional-configuration machinery).
* ``lossy-flap`` — a flapping lossy link layered over background
  uniform loss, the §IV-A4 regime pushed into burst territory.
* ``gc-stall`` — a process freezes past the token-loss timeout and
  returns: the ring reforms around it, then merges it back.
* ``incast`` / ``mixed-speed`` / ``rack-power-loss`` — leaf–spine
  fabric scenarios (:mod:`repro.net.fabric`): an oversubscribed spine
  trunk under all-to-all load, 1G and 10G racks sharing one ring, and a
  correlated rack failure with staggered recovery.
* ``reorder-storm`` — heavy data-frame reordering
  (:class:`~repro.net.impair.ReorderModel`) layered under token loss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.messages import DeliveryService
from repro.faults.drive import boot, wait_converged
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, PlanBuilder
from repro.net.fabric import LeafSpineSpec
from repro.net.impair import ImpairmentModel, ReorderModel
from repro.net.loss import LossModel, UniformLoss
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.obs.observer import MetricsObserver
from repro.sim.build import ClusterBuilder
from repro.sim.membership_driver import MembershipCluster
from repro.util.errors import FaultError
from repro.util.jsonreport import JsonReport


@dataclass
class ScenarioSpec:
    """Declarative description of one chaos scenario."""

    name: str
    summary: str
    num_hosts: int
    #: Simulated seconds to run after arming the plan (the chaos window).
    duration: float
    #: Build the fault plan; receives the scenario RNG for randomized
    #: variants (the library's plans are fixed; the seed still drives
    #: loss models and burst sampling).
    plan: Callable[[random.Random], FaultPlan]
    #: (time-after-arm, pid, service) triples of client submissions.
    traffic: List[tuple] = field(default_factory=list)
    #: Optional background loss model sharing the scenario RNG.
    loss_model: Optional[Callable[[random.Random], LossModel]] = None
    #: Optional leaf–spine fabric in place of the default one-rack star.
    fabric: Optional[LeafSpineSpec] = None
    #: Optional impairment model factory sharing the scenario RNG
    #: (applied to every host's delivery path).
    impairment: Optional[Callable[[random.Random], ImpairmentModel]] = None


@dataclass
class ScenarioReport(JsonReport):
    """The checked outcome of one scenario run."""

    name: str
    seed: int
    num_hosts: int
    ok: bool
    converged: bool
    violations: List[str]
    events: List[Dict[str, Any]]
    final_rings: Dict[int, List[int]]
    final_states: Dict[int, str]
    deliveries: Dict[int, int]
    submissions: Dict[int, int]
    fault_metrics: Dict[str, int]
    sim_time: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "num_hosts": self.num_hosts,
            "ok": self.ok,
            "converged": self.converged,
            "violations": self.violations,
            "events": self.events,
            "final_rings": {str(pid): ring for pid, ring in self.final_rings.items()},
            "final_states": {str(pid): s for pid, s in self.final_states.items()},
            "deliveries": {str(pid): n for pid, n in self.deliveries.items()},
            "submissions": {str(pid): n for pid, n in self.submissions.items()},
            "fault_metrics": self.fault_metrics,
            "sim_time": round(self.sim_time, 9),
        }


# ----------------------------------------------------------------------
# The scenario library
# ----------------------------------------------------------------------

def _spread_traffic(pids: List[int], start: float, stop: float, per_pid: int) -> List[tuple]:
    """Evenly spaced submissions per pid, alternating agreed/safe."""
    schedule: List[tuple] = []
    step = (stop - start) / max(per_pid, 1)
    for index in range(per_pid):
        when = start + index * step
        service = DeliveryService.SAFE if index % 2 else DeliveryService.AGREED
        for pid in pids:
            schedule.append((when, pid, service))
    return schedule


def _leader_crash(rng: random.Random) -> FaultPlan:
    return (
        PlanBuilder()
        .crash(0, at=0.02)
        .recover(0, at=0.3)
        .build()
    )


def _token_loss(rng: random.Random) -> FaultPlan:
    # Two token-loss episodes inside the accelerated window: one single
    # drop (recovered by the token-loss timeout) and one double drop.
    return (
        PlanBuilder()
        .token_drop(at=0.02, count=1)
        .token_drop(at=0.12, count=2)
        .build()
    )


def _partition_heal(rng: random.Random) -> FaultPlan:
    return (
        PlanBuilder()
        .partition({0, 1, 2, 3}, {4, 5, 6, 7}, at=0.03)
        .heal(at=0.35)
        .build()
    )


def _cascade(rng: random.Random) -> FaultPlan:
    return (
        PlanBuilder()
        .crash(1, at=0.02)
        .crash(2, at=0.1)
        .recover(1, at=0.22)
        .recover(2, at=0.34)
        .build()
    )


def _lossy_flap(rng: random.Random) -> FaultPlan:
    return (
        PlanBuilder()
        .loss_burst(at=0.02, duration=0.05, rate=0.25, pids={1})
        .loss_burst(at=0.12, duration=0.05, rate=0.25, pids={1})
        .loss_burst(at=0.22, duration=0.05, rate=0.25, pids={1})
        .build()
    )


def _gc_stall(rng: random.Random) -> FaultPlan:
    # The pause (15 ms) comfortably exceeds the 5 ms token-loss timeout:
    # the survivors must evict the stalled node, then merge it back.
    return (
        PlanBuilder()
        .pause(2, at=0.02)
        .resume(2, at=0.035)
        .build()
    )


def _incast(rng: random.Random) -> FaultPlan:
    # The fabric itself is the adversary (a 4:1 oversubscribed trunk
    # under all-to-all traffic); one token loss on top checks that the
    # loss timeout still works while the trunk is congested.
    return PlanBuilder().token_drop(at=0.1, count=1).build()


def _mixed_speed(rng: random.Random) -> FaultPlan:
    return (
        PlanBuilder()
        .crash(1, at=0.05)
        .recover(1, at=0.3)
        .build()
    )


def _reorder_storm(rng: random.Random) -> FaultPlan:
    return (
        PlanBuilder()
        .token_drop(at=0.08, count=1)
        .token_drop(at=0.2, count=1)
        .build()
    )


def _rack_loss(rng: random.Random) -> FaultPlan:
    # Rack 1 of the 2x4 fabric loses power (pids 4-7 fail together),
    # then the members return one by one and must all merge back.
    return (
        PlanBuilder()
        .rack_power_loss(rack=1, at=0.03, pids={4, 5, 6, 7})
        .recover(4, at=0.3)
        .recover(5, at=0.33)
        .recover(6, at=0.36)
        .recover(7, at=0.39)
        .build()
    )


SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="leader-crash",
            summary="crash the ring leader mid-round, recover it, merge back",
            num_hosts=4,
            duration=0.6,
            plan=_leader_crash,
            traffic=_spread_traffic([0, 1, 2, 3], 0.005, 0.2, per_pid=4),
        ),
        ScenarioSpec(
            name="token-loss",
            summary="drop token frames during the accelerated window",
            num_hosts=4,
            duration=0.4,
            plan=_token_loss,
            traffic=_spread_traffic([0, 1, 2, 3], 0.005, 0.25, per_pid=4),
        ),
        ScenarioSpec(
            name="partition-heal",
            summary="symmetric 4/4 partition of the 8-server testbed + heal",
            num_hosts=8,
            duration=0.8,
            plan=_partition_heal,
            traffic=_spread_traffic(list(range(8)), 0.005, 0.5, per_pid=3),
        ),
        ScenarioSpec(
            name="cascade",
            summary="cascading crash-recover of two processes",
            num_hosts=5,
            duration=0.7,
            plan=_cascade,
            traffic=_spread_traffic([0, 1, 2, 3, 4], 0.005, 0.4, per_pid=3),
        ),
        ScenarioSpec(
            name="lossy-flap",
            summary="flapping lossy link over background uniform loss",
            num_hosts=4,
            duration=0.6,
            plan=_lossy_flap,
            traffic=_spread_traffic([0, 1, 2, 3], 0.005, 0.4, per_pid=4),
            loss_model=lambda rng: UniformLoss(0.01, rng=rng),
        ),
        ScenarioSpec(
            name="gc-stall",
            summary="GC-stall one process past the token-loss timeout",
            num_hosts=4,
            duration=0.6,
            plan=_gc_stall,
            traffic=_spread_traffic([0, 1, 2, 3], 0.005, 0.3, per_pid=4),
        ),
        ScenarioSpec(
            name="incast",
            summary="all-to-all burst into a 4:1 oversubscribed spine trunk",
            num_hosts=8,
            duration=0.6,
            plan=_incast,
            traffic=_spread_traffic(list(range(8)), 0.005, 0.4, per_pid=6),
            fabric=LeafSpineSpec(racks=2, hosts_per_rack=4, oversubscription=4.0),
        ),
        ScenarioSpec(
            name="mixed-speed",
            summary="1G and 10G racks on one ring, crash-recover across them",
            num_hosts=4,
            duration=0.6,
            plan=_mixed_speed,
            traffic=_spread_traffic([0, 1, 2, 3], 0.005, 0.4, per_pid=4),
            fabric=LeafSpineSpec(
                racks=2,
                hosts_per_rack=2,
                rack_params=(GIGABIT, TEN_GIGABIT),
                rack_trunk_extra_propagation=(0.0, 2e-6),
            ),
        ),
        ScenarioSpec(
            name="reorder-storm",
            summary="heavy data-frame reordering plus token loss",
            num_hosts=4,
            duration=0.5,
            plan=_reorder_storm,
            traffic=_spread_traffic([0, 1, 2, 3], 0.005, 0.3, per_pid=4),
            impairment=lambda rng: ReorderModel(
                rate=0.12, max_displacement=3, rng=rng
            ),
        ),
        ScenarioSpec(
            name="rack-power-loss",
            summary="rack PDU failure: 4 co-located members crash at once",
            num_hosts=8,
            duration=0.8,
            plan=_rack_loss,
            traffic=_spread_traffic(list(range(8)), 0.005, 0.5, per_pid=3),
            fabric=LeafSpineSpec(racks=2, hosts_per_rack=4, oversubscription=2.0),
        ),
    )
}


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def run_scenario(name: str, seed: int = 0) -> ScenarioReport:
    """Run one named scenario and return its checked report.

    Two calls with the same ``name`` and ``seed`` return reports whose
    ``to_json()`` output is byte-identical.
    """
    spec = SCENARIOS.get(name)
    if spec is None:
        raise FaultError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    rng = random.Random(seed)
    observer = MetricsObserver()
    builder = ClusterBuilder().hosts(spec.num_hosts).membership().observe(observer)
    if spec.fabric is not None:
        builder.fabric(spec.fabric)
    # rng draw order: loss model first, then impairment — existing
    # scenarios (no impairment) keep their historical rng streams.
    if spec.loss_model is not None:
        builder.loss(spec.loss_model(rng))
    if spec.impairment is not None:
        builder.impair(spec.impairment(rng))
    cluster = builder.build_membership()
    base = boot(cluster)

    injector = FaultInjector(cluster, spec.plan(rng), rng=rng, observer=observer)
    injector.arm()
    for when, pid, service in spec.traffic:
        cluster.sim.schedule_at(base + when, _submit, cluster, pid, service)
    cluster.run(spec.duration)

    # Quiesce (every library plan recovers what it crashes, so nothing
    # is restarted) and let membership settle.
    cluster.quiesce()
    converged = wait_converged(cluster, slice=0.25, slices=12)

    violations: List[str] = []
    violation = cluster.checker.violation(crashed=injector.plan.crashed_pids())
    if violation is not None:
        violations.append(violation)
    if not converged:
        violations.append(
            f"live nodes failed to reconverge: rings={cluster.rings()}"
        )

    snapshot = observer.snapshot()
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    fault_metrics = {
        name: int(value)
        for name, value in sorted(counters.items())
        if name.startswith("fault.")
    }
    fault_metrics.update(
        {
            name: int(value)
            for name, value in sorted(gauges.items())
            if name.startswith("fault.")
        }
    )
    # Fabric congestion counters (deterministic, so they belong in the
    # byte-identical report); only present on multi-rack fabrics, leaving
    # one-rack (star) scenario reports unchanged.
    topology = cluster.topology
    if topology.spec.racks > 1:
        switch = topology.switch
        fault_metrics["fabric.frames_transited"] = switch.frames_transited
        fault_metrics["fabric.peak_trunk_queue_bytes"] = (
            switch.peak_trunk_queue_bytes
        )
        fault_metrics["fabric.total_drops"] = switch.total_drops

    return ScenarioReport(
        name=spec.name,
        seed=seed,
        num_hosts=spec.num_hosts,
        ok=not violations,
        converged=converged,
        violations=violations,
        events=injector.applied,
        final_rings={pid: list(ring) for pid, ring in sorted(cluster.rings().items())},
        final_states=dict(sorted(cluster.states().items())),
        deliveries={
            pid: len(host.delivered) for pid, host in sorted(cluster.hosts.items())
        },
        submissions=dict(sorted(cluster.checker.submissions.items())),
        fault_metrics=fault_metrics,
        sim_time=cluster.sim.now,
    )


def run_all(seed: int = 0) -> List[ScenarioReport]:
    """Run the whole library (CI's chaos-smoke job)."""
    return [run_scenario(name, seed=seed) for name in sorted(SCENARIOS)]


def _submit(cluster: MembershipCluster, pid: int, service: DeliveryService) -> None:
    if cluster.accepting(pid):  # else the client has no daemon to hand off to
        cluster.hosts[pid].submit(payload_size=64, service=service)

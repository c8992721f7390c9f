"""Cross-shard conformance: the sharded-ordering oracle.

The multi-ring layer makes two testable promises (docs/PROTOCOL.md
§11):

1. **Per-shard EVS** — each ring is a complete membership + ordering
   stack, so every single-ring guarantee holds per ring, faults
   included.
2. **Subscriber-identical merge** — the per-group delivery stream, and
   the round-robin merge over any group set, is the same for every
   subscriber — and, fault-free, the same *regardless of how many
   rings the groups are sharded over*: a group's stream under 2 rings
   must be byte-identical to its stream under 1 ring.

This module turns both into oracles:

* :func:`run_sharded` drives a deterministic per-group workload
  through an N-ring cluster (optionally with a fault plan against one
  ring) and records per-group streams from every vantage.  It is the
  ``rings-N`` substrate of :func:`~repro.conformance.differ.run_differential`,
  which compares those streams across ring counts (1 vs 2 by default)
  and across vantages.
* :func:`explore_grid` runs a bounded depth-1 fault schedule grid
  (crash+recover, pause+resume, token drop — per ring, per anchor)
  through the one explorer (:mod:`repro.faults.explorer`), with
  :func:`run_sharded` on the faulted ring as the oracle: every ring's
  EVS suite must stay clean and the cluster reconverge.  Cross-ring-count
  equality is *not* asserted under faults — fault timing legitimately
  changes delivery sets — so the grid checks the per-shard guarantees
  only.

The workload submits each group's messages from one canonical sender
in strict sequence (the single-sender discipline of
:mod:`repro.conformance.workload`), so fault-free per-group delivery
order is the submission order on any topology, making cross-topology
comparison unambiguous.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.drive import boot, wait_converged
from repro.faults.explorer import (
    ExplorationCase,
    ExplorationReport,
    Schedule,
    ScheduleSource,
    explore,
)
from repro.faults.generator import Step
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.multiring.cluster import MultiRingCluster
from repro.obs.coverage import CoverageObserver, CoverageReport
from repro.obs.observer import ProtocolObserver
from repro.sim.build import ClusterBuilder
from repro.util.errors import ConfigurationError

#: Settle time after the last scheduled submission.
_TAIL = 0.3


@dataclass(frozen=True)
class ShardedWorkload:
    """A deterministic per-group submission schedule.

    ``messages_per_group`` messages per group, submitted round-robin
    across groups ``spacing`` seconds apart, each group always from its
    canonical sender (:meth:`MultiRingCluster.sender_of`) so the
    per-group order is the submission order on every topology.

    The default six groups hash across both rings at N=2 and across
    all four at N=4, so the differential exercises the cross-shard
    merge, not just a single loaded ring.
    """

    num_groups: int = 6
    messages_per_group: int = 6
    hosts_per_ring: int = 4
    spacing: float = 0.004

    def groups(self) -> Tuple[str, ...]:
        return tuple(f"g{index}" for index in range(self.num_groups))

    def label(self, group: str, index: int) -> bytes:
        return f"{group}.{index}".encode("ascii")

    @property
    def traffic_span(self) -> float:
        return self.num_groups * self.messages_per_group * self.spacing

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardedWorkload":
        return cls(**payload)


@dataclass
class ShardedRun:
    """One N-ring drive: per-group streams from every vantage."""

    num_rings: int
    #: group → canonical-vantage payload sequence.
    group_streams: Dict[str, List[bytes]]
    #: group → ring index it was sharded onto.
    shard_of: Dict[str, int]
    #: group → vantage pid → payload sequence (every live member of the
    #: group's ring).
    vantage_streams: Dict[str, Dict[int, List[bytes]]]
    #: vantage pid → merged (group, payload) stream over all groups,
    #: for pids live on every spanned ring.
    merged_streams: Dict[int, List[Tuple[str, bytes]]]
    evs_violations: Dict[int, str]
    converged: bool
    crashed_pids: frozenset
    deliveries: int
    cluster: MultiRingCluster
    #: Protocol-branch coverage, when the run was observed for it.
    coverage: Optional[CoverageReport] = None

    @property
    def name(self) -> str:
        return f"rings-{self.num_rings}"

    @property
    def ok(self) -> bool:
        """The per-shard verdict: every ring EVS-clean, all converged."""
        return not self.evs_violations and self.converged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "converged": self.converged,
            "evs": {str(ring): text for ring, text in sorted(self.evs_violations.items())},
            "deliveries": self.deliveries,
        }


def run_sharded(
    num_rings: int,
    workload: Optional[ShardedWorkload] = None,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    plan_ring: int = 0,
    observer: Optional[ProtocolObserver] = None,
) -> ShardedRun:
    """Drive ``workload`` through an ``num_rings``-ring cluster.

    ``plan`` (optional) is armed against ring ``plan_ring`` after boot,
    exactly as the single-ring conformance driver arms its plans; the
    other rings see no injected faults, which is itself part of what
    the per-shard EVS check verifies (fault isolation).  ``observer``
    (optional) watches every ring.
    """
    workload = workload if workload is not None else ShardedWorkload()
    if plan is not None and not 0 <= plan_ring < num_rings:
        raise ConfigurationError(
            f"plan_ring {plan_ring} out of range for {num_rings} rings"
        )
    builder = ClusterBuilder().rings(num_rings).hosts(workload.hosts_per_ring)
    if observer is not None:
        builder.observe(observer)
    cluster = builder.membership().build_multiring()
    base = boot(cluster)

    armed = plan is not None and len(plan) > 0
    if armed:
        FaultInjector(cluster.ring(plan_ring), plan, rng=random.Random(seed)).arm()

    groups = workload.groups()
    when = base
    for index in range(workload.messages_per_group):
        for group in groups:
            cluster.sim.schedule_at(
                when, cluster.submit, group, workload.label(group, index)
            )
            when += workload.spacing
    window = when - base
    if armed:
        window = max(window, plan.horizon)
    cluster.run(window + 0.1)

    # Quiesce every ring, restarting what the plan left crashed, and poll.
    crashed = plan.crashed_pids() if plan is not None else set()
    cluster.quiesce(restart={plan_ring: crashed})
    cluster.run(0.05)
    converged = wait_converged(cluster, slice=0.05, slices=59)
    cluster.run(_TAIL)

    shard_of = {group: cluster.ring_of(group) for group in groups}
    group_streams: Dict[str, List[bytes]] = {}
    vantage_streams: Dict[str, Dict[int, List[bytes]]] = {}
    for group in groups:
        ring_index = shard_of[group]
        live = cluster.ring(ring_index).live_pids()
        per_pid = {
            pid: [
                payload
                for _, payload in cluster.group_stream(
                    ring_index, pid, groups={group}
                )
            ]
            for pid in live
        }
        vantage_streams[group] = per_pid
        group_streams[group] = per_pid[live[0]] if live else []

    spanned = cluster.shard_map.rings_for(groups)
    common_live = None
    for ring_index in spanned:
        live = set(cluster.ring(ring_index).live_pids())
        common_live = live if common_live is None else common_live & live
    merged_streams = {
        pid: cluster.merged_stream(list(groups), vantage=pid)
        for pid in sorted(common_live or ())
    }

    waiver = {plan_ring: frozenset(crashed)} if crashed else None
    return ShardedRun(
        num_rings=num_rings,
        group_streams=group_streams,
        shard_of=shard_of,
        vantage_streams=vantage_streams,
        merged_streams=merged_streams,
        evs_violations=cluster.check_evs(crashed=waiver),
        converged=converged,
        crashed_pids=frozenset(crashed),
        deliveries=sum(len(stream) for stream in group_streams.values()),
        cluster=cluster,
    )


# ----------------------------------------------------------------------
# The per-ring depth-1 grid (per-shard EVS under faults)
# ----------------------------------------------------------------------

#: Depth-1 schedule kinds as integer-ms steps at ``at`` against ``pid``:
#: each fault is followed by its repair, 300 ms (recover) or 150 ms
#: (resume) later.
DEPTH1_STEPS: Dict[str, Callable[[int, int], List[Step]]] = {
    "crash-recover": lambda at, pid: [(at, "crash", pid), (300, "recover", pid)],
    "pause-resume": lambda at, pid: [(at, "pause", pid), (150, "resume", pid)],
    "token-drop": lambda at, pid: [(at, "token_drop", 0)],
}


def explore_grid(
    num_rings: int = 2,
    workload: Optional[ShardedWorkload] = None,
    seed: int = 0,
    kinds: Sequence[str] = tuple(DEPTH1_STEPS),
    anchors: Sequence[float] = (0.25, 0.6),
    pids: Sequence[int] = (0,),
    budget: Optional[int] = None,
    minimize: bool = True,
    progress: Optional[Callable[[ExplorationReport, ExplorationCase], None]] = None,
) -> ExplorationReport:
    """Sweep every depth-1 schedule over every ring.

    Each case injects one minimal fault schedule into exactly one ring
    and checks the per-shard guarantees: every ring's EVS suite passes
    (crashed incarnations waived on the faulted ring only) and the
    whole cluster reconverges.  The grid is ``rings × kinds × anchors ×
    pids`` (token drops at pid 0 only); an anchor is a fraction of the
    traffic span, rounded to whole ms.  A case's label is its kind, pid
    and ``at`` in seconds.
    """
    workload = workload if workload is not None else ShardedWorkload()
    schedules = [
        Schedule(DEPTH1_STEPS[kind](at, pid), seed, ring, dict(kind=kind, pid=pid, at=at / 1000))
        for ring in range(num_rings)
        for kind in kinds
        for at in [round(anchor * workload.traffic_span * 1000) for anchor in anchors]
        for pid in (pids if kind != "token-drop" else (0,))
    ]
    params = {"num_rings": num_rings, "workload": workload.to_dict(), "seed": seed}
    source = ScheduleSource("ring-grid", params, workload.hosts_per_ring, schedules)

    def oracle(plan: FaultPlan, seed: int, ring: int) -> ShardedRun:
        observer = CoverageObserver()
        run = run_sharded(num_rings, workload, seed, plan, ring, observer)
        run.coverage = observer.report()
        return run

    return explore(oracle, source, budget=budget, minimize=minimize, progress=progress)

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

This module turns both into oracles in the style of
:mod:`repro.conformance.differ`:

* :func:`run_sharded` drives a deterministic per-group workload
  through an N-ring cluster (optionally with a fault plan against one
  ring) and records per-group streams from every vantage.
* :func:`run_sharded_differential` compares those streams across ring
  counts (1 vs 2 by default) and across vantages, reporting structured
  :class:`~repro.conformance.differ.ConformanceDivergence` records.
* :func:`explore_sharded` enumerates a bounded depth-1 fault schedule
  grid (crash+recover, pause+resume, token drop — per ring, per
  anchor) and checks that every ring's EVS suite stays clean and the
  cluster reconverges.  Cross-ring-count equality is *not* asserted
  under faults — fault timing legitimately changes delivery sets — so
  the explorer checks the per-shard guarantees only.

The workload submits each group's messages from one canonical sender
in strict sequence (the single-sender discipline of
:mod:`repro.conformance.workload`), so fault-free per-group delivery
order is the submission order on any topology, making cross-topology
comparison unambiguous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.conformance.differ import (
    ConformanceDivergence,
    compare_label_sequences,
    health_divergences,
)
from repro.faults.drive import boot, wait_converged
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, PlanBuilder
from repro.multiring.cluster import MultiRingCluster
from repro.sim.build import ClusterBuilder
from repro.util.errors import ConfigurationError
from repro.util.jsonreport import JsonReport

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
        return {
            "num_groups": self.num_groups,
            "messages_per_group": self.messages_per_group,
            "hosts_per_ring": self.hosts_per_ring,
            "spacing": self.spacing,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardedWorkload":
        return cls(
            num_groups=int(payload["num_groups"]),
            messages_per_group=int(payload["messages_per_group"]),
            hosts_per_ring=int(payload["hosts_per_ring"]),
            spacing=float(payload["spacing"]),
        )


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

    @property
    def name(self) -> str:
        return f"rings-{self.num_rings}"


def run_sharded(
    num_rings: int,
    workload: Optional[ShardedWorkload] = None,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    plan_ring: int = 0,
) -> ShardedRun:
    """Drive ``workload`` through an ``num_rings``-ring cluster.

    ``plan`` (optional) is armed against ring ``plan_ring`` after boot,
    exactly as the single-ring conformance driver arms its plans; the
    other rings see no injected faults, which is itself part of what
    the per-shard EVS check verifies (fault isolation).
    """
    workload = workload if workload is not None else ShardedWorkload()
    if plan is not None and not 0 <= plan_ring < num_rings:
        raise ConfigurationError(
            f"plan_ring {plan_ring} out of range for {num_rings} rings"
        )
    cluster = (
        ClusterBuilder()
        .rings(num_rings)
        .hosts(workload.hosts_per_ring)
        .membership()
        .build_multiring()
    )
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
# The cross-topology differential
# ----------------------------------------------------------------------


def _merge_labels(stream: Sequence[Tuple[str, bytes]]) -> List[bytes]:
    """Flatten a merged (group, payload) stream into comparable labels."""
    return [group.encode("ascii") + b"/" + payload for group, payload in stream]


@dataclass
class ShardedReport(JsonReport):
    """The outcome of one sharded differential, JSON-round-trippable."""

    workload: ShardedWorkload
    seed: int
    ring_counts: Tuple[int, ...]
    divergences: List[ConformanceDivergence] = field(default_factory=list)
    deliveries: Dict[str, int] = field(default_factory=dict)
    evs: Dict[str, Dict[int, str]] = field(default_factory=dict)
    converged: Dict[str, bool] = field(default_factory=dict)
    shards: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload.to_dict(),
            "seed": self.seed,
            "ring_counts": list(self.ring_counts),
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
            "deliveries": dict(sorted(self.deliveries.items())),
            "evs": {
                name: {str(ring): text for ring, text in sorted(violations.items())}
                for name, violations in sorted(self.evs.items())
            },
            "converged": dict(sorted(self.converged.items())),
            "shards": {
                name: dict(sorted(mapping.items()))
                for name, mapping in sorted(self.shards.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardedReport":
        return cls(
            workload=ShardedWorkload.from_dict(payload["workload"]),
            seed=int(payload["seed"]),
            ring_counts=tuple(int(n) for n in payload["ring_counts"]),
            divergences=[
                ConformanceDivergence.from_dict(entry)
                for entry in payload.get("divergences", [])
            ],
            deliveries=dict(payload.get("deliveries", {})),
            evs={
                name: {int(ring): text for ring, text in violations.items()}
                for name, violations in payload.get("evs", {}).items()
            },
            converged=dict(payload.get("converged", {})),
            shards={
                name: dict(mapping)
                for name, mapping in payload.get("shards", {}).items()
            },
        )


def _check_run_consistency(run: ShardedRun) -> List[ConformanceDivergence]:
    """Within one run: every vantage must observe the same streams."""
    divergences: List[ConformanceDivergence] = []
    for group, per_pid in sorted(run.vantage_streams.items()):
        pids = sorted(per_pid)
        if not pids:
            continue
        reference = per_pid[pids[0]]
        for pid in pids[1:]:
            found = compare_label_sequences(
                f"{run.name}/pid{pids[0]}",
                f"{run.name}/pid{pid}",
                pid,
                reference,
                per_pid[pid],
                phase=f"group:{group}",
            )
            if found is not None:
                divergences.append(found)
    vantages = sorted(run.merged_streams)
    if vantages:
        reference = _merge_labels(run.merged_streams[vantages[0]])
        for pid in vantages[1:]:
            found = compare_label_sequences(
                f"{run.name}/pid{vantages[0]}",
                f"{run.name}/pid{pid}",
                pid,
                reference,
                _merge_labels(run.merged_streams[pid]),
                phase="merged",
            )
            if found is not None:
                divergences.append(found)
    return divergences


def run_sharded_differential(
    workload: Optional[ShardedWorkload] = None,
    ring_counts: Sequence[int] = (1, 2),
    seed: int = 0,
) -> ShardedReport:
    """Fault-free differential: the same workload at several ring counts.

    Three properties are compared:

    * per-group streams are identical across ring counts (sharding is
      invisible within a group);
    * within each run, every vantage observes identical per-group and
      merged streams (subscriber-identical order);
    * every ring of every run passes the full EVS suite and converges.
    """
    workload = workload if workload is not None else ShardedWorkload()
    if len(ring_counts) < 2:
        raise ConfigurationError(
            f"differential needs at least two ring counts, got {ring_counts!r}"
        )
    runs = [run_sharded(count, workload, seed=seed) for count in ring_counts]
    report = ShardedReport(
        workload=workload,
        seed=seed,
        ring_counts=tuple(ring_counts),
        deliveries={run.name: run.deliveries for run in runs},
        evs={run.name: dict(run.evs_violations) for run in runs},
        converged={run.name: run.converged for run in runs},
        shards={run.name: dict(run.shard_of) for run in runs},
    )
    baseline = runs[0]
    for other in runs[1:]:
        for group_index, group in enumerate(sorted(baseline.group_streams)):
            found = compare_label_sequences(
                baseline.name,
                other.name,
                group_index,
                baseline.group_streams[group],
                other.group_streams.get(group, []),
                phase=f"group:{group}",
            )
            if found is not None:
                report.divergences.append(found)
    for run in runs:
        report.divergences.extend(_check_run_consistency(run))
        report.divergences.extend(
            health_divergences(
                baseline.name,
                run.name,
                {
                    f"{run.name}/ring{ring_index}": violation
                    for ring_index, violation in sorted(run.evs_violations.items())
                },
                run.converged,
                f"{run.name} did not reconverge",
            )
        )
    return report


# ----------------------------------------------------------------------
# Depth-1 fault exploration (per-shard EVS under faults)
# ----------------------------------------------------------------------

#: Depth-1 schedule kinds explored per (ring, anchor).
EXPLORE_KINDS: Tuple[str, ...] = ("crash-recover", "pause-resume", "token-drop")


def _depth1_plan(kind: str, pid: int, at: float) -> FaultPlan:
    builder = PlanBuilder()
    if kind == "crash-recover":
        builder.crash(pid, at=at).recover(pid, at=at + 0.3)
    elif kind == "pause-resume":
        builder.pause(pid, at=at).resume(pid, at=at + 0.15)
    elif kind == "token-drop":
        builder.token_drop(at=at)
    else:
        raise ConfigurationError(f"unknown schedule kind {kind!r}")
    return builder.build()


@dataclass
class ShardedExplorationReport(JsonReport):
    """Outcome of a depth-1 sweep: per-case EVS + convergence verdicts."""

    num_rings: int
    workload: ShardedWorkload
    seed: int
    cases: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def failures(self) -> List[Dict[str, Any]]:
        return [case for case in self.cases if not case["ok"]]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_rings": self.num_rings,
            "workload": self.workload.to_dict(),
            "seed": self.seed,
            "ok": self.ok,
            "cases": self.cases,
        }


def explore_sharded(
    num_rings: int = 2,
    workload: Optional[ShardedWorkload] = None,
    seed: int = 0,
    kinds: Sequence[str] = EXPLORE_KINDS,
    anchors: Sequence[float] = (0.25, 0.6),
    pids: Sequence[int] = (0,),
    progress=None,
) -> ShardedExplorationReport:
    """Sweep every depth-1 schedule over every ring.

    Each case injects one minimal fault schedule into exactly one ring
    and checks the per-shard guarantees: every ring's EVS suite passes
    (crashed incarnations waived on the faulted ring only) and the
    whole cluster reconverges.  The grid is
    ``rings × kinds × anchors × pids``; anchors are fractions of the
    traffic span.
    """
    workload = workload if workload is not None else ShardedWorkload()
    report = ShardedExplorationReport(
        num_rings=num_rings, workload=workload, seed=seed
    )
    for ring_index in range(num_rings):
        for kind in kinds:
            for anchor in anchors:
                at = round(anchor * workload.traffic_span, 6)
                for pid in pids if kind != "token-drop" else (0,):
                    plan = _depth1_plan(kind, pid, at)
                    run = run_sharded(
                        num_rings,
                        workload,
                        seed=seed,
                        plan=plan,
                        plan_ring=ring_index,
                    )
                    ok = not run.evs_violations and run.converged
                    case = {
                        "ring": ring_index,
                        "kind": kind,
                        "pid": pid,
                        "at": at,
                        "ok": ok,
                        "converged": run.converged,
                        "evs": {
                            str(ring): text
                            for ring, text in sorted(
                                run.evs_violations.items()
                            )
                        },
                        "deliveries": run.deliveries,
                    }
                    report.cases.append(case)
                    if progress is not None:
                        status = "ok" if ok else "FAIL"
                        progress(
                            f"  ring {ring_index} {kind} pid {pid} "
                            f"@{at:.3f}: {status}"
                        )
    return report

"""Named KV chaos scenarios with machine-checked outcomes.

The application-level mirror of :mod:`repro.faults.scenarios`: build a
:class:`~repro.apps.kv.cluster.KvCluster`, drive a seeded skewed
workload (:mod:`repro.workloads.kv`), inject faults — one
:class:`~repro.faults.plan.FaultPlan` per ring through
:class:`~repro.faults.injector.FaultInjector`, including the crash
window the WAL exists for, ``crash_after_append``, *between durable
append and apply* — then heal and check everything the subsystem
promises:

* membership re-converged and every live replica serving;
* **store convergence** — byte-identical state digests per ring;
* **EVS** — every ring's checker clean (crashed incarnations waived);
* **linearizability** — the client-observed history checks out.

Reports are byte-identical JSON per ``(name, seed)``: the workload is
seeded, fault times are fixed, and the simulator is deterministic — a
violation is a diffable artifact carrying its own repro seed, which is
what the nightly seed-bank job uploads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.apps.kv.cluster import KvCluster
from repro.faults.drive import boot, wait_converged
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, PlanBuilder
from repro.util.errors import FaultError
from repro.util.jsonreport import JsonReport
from repro.workloads.kv import DiurnalArrivals, KvOpMix, ZipfianKeys, drive_schedule

#: The workload every scenario drives: four clients over a 64-key
#: Zipfian keyspace, arriving on a diurnal 150–600 ops/s curve.
_NUM_KEYS = 64
_NUM_CLIENTS = 4
_ZIPF_S = 0.99
_TROUGH_RATE = 150.0
_PEAK_RATE = 600.0


@dataclass
class KvScenarioSpec:
    """Declarative description of one KV chaos scenario."""

    name: str
    summary: str
    rings: int
    hosts_per_ring: int
    partitions: int
    #: Simulated seconds of workload + faults after boot.
    duration: float
    #: Ring index → the faults that ring takes, timed from the workload
    #: start.  Every plan recovers what it crashes.
    plans: Dict[int, FaultPlan]
    snapshot_every: int = 16
    txn_weight: float = 0.05


@dataclass
class KvChaosReport(JsonReport):
    """The checked outcome of one KV scenario run."""

    name: str
    seed: int
    rings: int
    hosts_per_ring: int
    partitions: int
    ok: bool
    converged: bool
    stores_converged: bool
    evs_violations: Dict[int, str]
    linearizability: Dict[str, Any]
    violations: List[str]
    digests: Dict[int, Dict[int, str]]
    history: Dict[str, int]
    counters: Dict[str, Any]
    events: List[Dict[str, Any]]
    sim_time: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "topology": {
                "rings": self.rings,
                "hosts_per_ring": self.hosts_per_ring,
                "partitions": self.partitions,
            },
            "ok": self.ok,
            "converged": self.converged,
            "stores_converged": self.stores_converged,
            "evs_violations": {
                str(ring): text for ring, text in sorted(self.evs_violations.items())
            },
            "linearizability": self.linearizability,
            "violations": self.violations,
            "digests": {
                str(ring): {str(pid): digest for pid, digest in sorted(per.items())}
                for ring, per in sorted(self.digests.items())
            },
            "history": self.history,
            "counters": self.counters,
            "events": self.events,
            "sim_time": round(self.sim_time, 9),
        }


# ----------------------------------------------------------------------
# The scenario library
# ----------------------------------------------------------------------

def _ring_outage(hosts: int) -> FaultPlan:
    """Crash every replica of a ring one by one, then recover them all."""
    builder = PlanBuilder()
    for pid in range(hosts):
        builder.crash(pid, at=0.08 + 0.015 * pid)
    for pid in range(hosts):
        builder.recover(pid, at=0.4 + 0.02 * pid)
    return builder.build()


SCENARIOS: Dict[str, KvScenarioSpec] = {
    spec.name: spec
    for spec in (
        KvScenarioSpec(
            name="kv-crash-mid-txn",
            summary="kill a replica between WAL append and apply of a "
                    "transaction; recover, resync, converge",
            rings=2,
            hosts_per_ring=4,
            partitions=8,
            duration=0.8,
            # The victim recovers by snapshot + WAL replay, rejoins
            # through EVS and resyncs the suffix it missed from a peer.
            plans={
                0: PlanBuilder()
                .crash_after_append(2, at=0.05, only_transactions=True)
                .recover(2, at=0.45)
                .build()
            },
            txn_weight=0.25,
            snapshot_every=8,
        ),
        KvScenarioSpec(
            name="kv-partition",
            summary="majority/minority split of one ring under load; "
                    "minority stalls, no divergence, heal and converge",
            rings=2,
            hosts_per_ring=4,
            partitions=8,
            duration=0.9,
            # Clients see incomplete operations, never wrong answers.
            plans={0: PlanBuilder().partition({0, 1, 2}, {3}, at=0.06).heal(at=0.5).build()},
        ),
        KvScenarioSpec(
            name="kv-cascade",
            summary="cascading crash-recover across both rings",
            rings=2,
            hosts_per_ring=4,
            partitions=8,
            duration=1.0,
            # Each victim replays its own WAL, then takes a peer transfer.
            plans={
                0: PlanBuilder().crash(1, at=0.05).recover(1, at=0.4).build(),
                1: PlanBuilder().crash(2, at=0.12).recover(2, at=0.55).build(),
            },
        ),
        KvScenarioSpec(
            name="kv-ring-outage",
            summary="crash every replica of one ring; recover all; the "
                    "longest durable WAL wins the election",
            rings=2,
            hosts_per_ring=3,
            partitions=6,
            duration=1.1,
            # No primary survives to donate state.
            plans={0: _ring_outage(hosts=3)},
            snapshot_every=8,
        ),
    )
}


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def run_kv_scenario(name: str, seed: int = 0, config=None) -> KvChaosReport:
    """Run one named KV scenario; byte-identical JSON per (name, seed).

    ``config`` overrides the rings' default :class:`~repro.core.config.
    ProtocolConfig` (e.g. to run the library with coalescing on)."""
    spec = SCENARIOS.get(name)
    if spec is None:
        raise FaultError(
            f"unknown KV scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    rng = random.Random(seed)
    kv = KvCluster(
        rings=spec.rings,
        hosts_per_ring=spec.hosts_per_ring,
        partitions=spec.partitions,
        snapshot_every=spec.snapshot_every,
        config=config,
    )
    boot(kv)
    # Replicas serve only once their first configuration is confirmed:
    # wait for that too before the workload starts.
    wait_converged(kv, slice=0.25, slices=16)

    base = kv.sim.now
    keys = ZipfianKeys(num_keys=_NUM_KEYS, s=_ZIPF_S, seed=seed * 7 + 1)
    arrivals = DiurnalArrivals(
        trough_rate=_TROUGH_RATE,
        peak_rate=_PEAK_RATE,
        period=spec.duration,
        burst_factor=2.0,
        burst_width=spec.duration / 10.0,
        seed=seed * 7 + 2,
    )
    mix = KvOpMix(
        keys=keys,
        num_clients=_NUM_CLIENTS,
        txn_weight=spec.txn_weight,
        seed=seed * 7 + 3,
    )
    scheduled = drive_schedule(kv, mix.schedule(arrivals.times(spec.duration)), base)
    injectors = {
        ring: FaultInjector(kv.ring(ring), plan, rng=rng).arm()
        for ring, plan in sorted(spec.plans.items())
    }
    kv.run(spec.duration)

    # Quiesce (the plans recover what they crash), then let membership
    # and the transfer/election machinery settle.
    kv.quiesce()
    converged = wait_converged(kv, slice=0.25, slices=16)

    stores_converged = kv.stores_converged()
    evs_violations = kv.check_evs()
    lin = kv.check_linearizability()

    violations: List[str] = []
    if not converged:
        violations.append("cluster failed to reconverge to serving replicas")
    if not stores_converged:
        violations.append(
            f"replica stores diverged after heal: digests={kv.store_digests()}"
        )
    violations.extend(
        f"ring {ring}: {text}" for ring, text in sorted(evs_violations.items())
    )
    violations.extend(lin.violations)

    counters = kv.counters()
    counters["ops_scheduled"] = scheduled
    return KvChaosReport(
        name=spec.name,
        seed=seed,
        rings=spec.rings,
        hosts_per_ring=spec.hosts_per_ring,
        partitions=spec.partitions,
        ok=not violations,
        converged=converged,
        stores_converged=stores_converged,
        evs_violations=evs_violations,
        linearizability=lin.to_dict(),
        violations=violations,
        digests=kv.store_digests(),
        history={
            "ops": len(kv.history),
            "completed": kv.history.completed,
            "incomplete": kv.history.incomplete,
        },
        counters=counters,
        events=sorted(
            (
                {**entry, "ring": ring}
                for ring, injector in injectors.items()
                for entry in injector.applied
            ),
            key=lambda entry: entry["t"],
        ),
        sim_time=kv.sim.now,
    )


"""Sim↔real differential oracle: one workload, two implementations.

Every other oracle in :mod:`repro.conformance` compares protocol
*variants* inside the deterministic simulator.  This one compares the
simulator against the asyncio/UDP runtime: the same seeded, serialized
workload is driven through a simulated membership cluster and through a
fleet of real :class:`~repro.runtime.node.RingNode` processes on
loopback, per-pid delivery streams are captured with the same
:class:`~repro.conformance.variants.ConformanceTap`, and the streams
are compared by :func:`~repro.conformance.differ.run_differential`:
the ``sim`` and ``real`` variants are this module's two substrates.

Soundness — why the comparison is exact and not merely statistical: the
real runtime's interleaving of *concurrent* senders depends on wall
clock scheduling, so free-running bursts would order differently on
every run and differ from the simulator without any bug.  The workload
here is therefore **serialized**: one sender per burst, and a barrier
after every burst that waits until every live node has delivered the
whole burst.  Under that schedule the total order is
schedule-independent — it must equal the submission order — so
fault-free streams must be *identical* between sim and real, and any
divergence is an implementation bug, not scheduling noise.  Faults are
likewise injected only at barriers (no messages in flight), so under a
crash/restart the calm prefix and the probe round must also agree;
what this oracle deliberately does **not** exercise is contended
multi-sender interleaving or recovery of in-flight traffic — the sim
oracle owns those.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.conformance.variants import (
    MSG,
    PHASE_MAIN,
    PHASE_PROBE,
    ConformanceDivergence,
    ConformanceTap,
    VariantRun,
)
from repro.conformance.workload import make_label
from repro.core.messages import DeliveryService
from repro.faults.drive import poll
from repro.obs.observer import ProtocolObserver
from repro.runtime.fleet import FLEET_TIMEOUTS
from repro.runtime.node import RingNode
from repro.runtime.ports import ephemeral_ring_addresses
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import DAEMON

#: Wall-clock deadlines for the real ring's waits: draining one burst,
#: and (re)forming the ring.  (The simulated ring waits in simulated
#: time instead — see :meth:`_SimRing.wait`.)
_REAL_BARRIER_TIMEOUT = 8.0
_REAL_FORM_TIMEOUT = 15.0


@dataclass(frozen=True)
class RealtimeWorkload:
    """A serialized workload both implementations replay in lock step."""

    num_hosts: int = 3
    bursts: int = 6
    burst_size: int = 5
    payload_size: int = 32
    probe_bursts: int = 3
    probe_burst_size: int = 4
    #: Crash the last pid at barrier ``crash_burst`` and restart it at
    #: ``restart_burst`` (burst indices).
    crash: bool = False
    crash_burst: int = 2
    restart_burst: int = 4

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RealtimeWorkload":
        return cls(**payload)


def build_schedule(workload: RealtimeWorkload) -> List[Tuple[Any, ...]]:
    """The shared event script: both runners consume this verbatim.

    Events: ``("burst", sender, size, live_members)``, ``("crash",
    pid)``, ``("restart", pid)``, ``("probe",)``.  Keeping the script a
    pure function of the workload is what locks the two
    implementations to the same submission order.
    """
    events: List[Tuple[Any, ...]] = []
    live = list(range(workload.num_hosts))
    crash_pid = workload.num_hosts - 1
    for index in range(workload.bursts):
        if workload.crash and index == workload.crash_burst:
            events.append(("crash", crash_pid))
            live.remove(crash_pid)
        if workload.crash and index == workload.restart_burst:
            events.append(("restart", crash_pid))
            live.append(crash_pid)
            live.sort()
        sender = live[index % len(live)]
        events.append(("burst", sender, workload.burst_size, tuple(live)))
    events.append(("probe",))
    for index in range(workload.probe_bursts):
        sender = live[index % len(live)]
        events.append(("burst", sender, workload.probe_burst_size, tuple(live)))
    return events


class _LabelCounter:
    """Per-sender label indices, identical across both runners."""

    def __init__(self, payload_size: int) -> None:
        self.payload_size = payload_size
        self._next: Dict[int, int] = {}

    def labels(self, pid: int, count: int) -> List[bytes]:
        start = self._next.get(pid, 0)
        self._next[pid] = start + count
        return [
            make_label(pid, start + offset, pad_to=self.payload_size)
            for offset in range(count)
        ]


def _message_counts(tap: ConformanceTap) -> Dict[int, int]:
    return {
        pid: sum(1 for event in stream if event[0] == MSG)
        for pid, stream in tap.streams.items()
    }


# ----------------------------------------------------------------------
# One interpreter, two substrates
# ----------------------------------------------------------------------


async def _replay(ring, workload: RealtimeWorkload) -> bool:
    """Interpret :func:`build_schedule` against ``ring``.

    ``ring`` is a substrate (:class:`_SimRing`, :class:`_RealRing`)
    exposing ``submit / crash / restart / ring_is / wait / live_pids /
    tap``.  Every burst, crash and restart is followed by a barrier —
    the burst delivered everywhere live, or the ring reformed — so the
    two substrates see the same submissions against the same
    memberships.  Returns ``False`` if any barrier timed out; the script
    still runs to its end so the streams stay comparable.
    """
    everyone = tuple(range(workload.num_hosts))
    counter = _LabelCounter(workload.payload_size)
    expected: Dict[int, int] = {pid: 0 for pid in everyone}

    def delivered(live: Tuple[int, ...]) -> bool:
        counts = _message_counts(ring.tap)
        return all(counts.get(pid, 0) >= expected[pid] for pid in live)

    converged = await ring.wait(lambda: ring.ring_is(everyone), _REAL_FORM_TIMEOUT)
    ring.tap.mark(PHASE_MAIN, everyone)
    for event in build_schedule(workload):
        passed = True
        if event[0] == "burst":
            _, sender, size, live = event
            for label in counter.labels(sender, size):
                ring.submit(sender, label)
                for pid in live:
                    expected[pid] += 1
            passed = await ring.wait(lambda: delivered(live), _REAL_BARRIER_TIMEOUT)
        elif event[0] == "crash":
            await ring.crash(event[1])
            survivors = tuple(pid for pid in everyone if pid != event[1])
            passed = await ring.wait(
                lambda: ring.ring_is(survivors), _REAL_FORM_TIMEOUT
            )
        elif event[0] == "restart":
            await ring.restart(event[1])
            passed = await ring.wait(
                lambda: ring.ring_is(everyone), _REAL_FORM_TIMEOUT
            )
        elif event[0] == "probe":
            ring.tap.mark(PHASE_PROBE, ring.live_pids())
        converged = converged and passed
    return converged


class _SimRing:
    """The membership simulator as a replay substrate: waits advance
    simulated time, crash and restart are the cluster's own."""

    def __init__(
        self, workload: RealtimeWorkload, observer: Optional[ProtocolObserver]
    ) -> None:
        self.tap = ConformanceTap()
        builder = ClusterBuilder().hosts(workload.num_hosts).membership()
        builder.profile(DAEMON).tap(self.tap)
        if observer is not None:
            builder.observe(observer)
        self.cluster = builder.build_membership()

    def live_pids(self) -> List[int]:
        return self.cluster.live_pids()

    def submit(self, pid: int, label: bytes) -> None:
        self.cluster.hosts[pid].submit(
            payload=label, service=DeliveryService.AGREED, payload_size=len(label)
        )

    async def crash(self, pid: int) -> None:
        self.cluster.crash(pid)

    async def restart(self, pid: int) -> None:
        self.cluster.restart(pid)

    def ring_is(self, members: Tuple[int, ...]) -> bool:
        # Ring *ids*, not member tuples: after a fault the membership
        # layer may transiently form concurrent rings whose member lists
        # happen to be identical (EVS allows it) — submitting into one
        # of those strands the burst in a configuration the other
        # processes never install.  A single shared config id is the
        # stable-ring condition.
        cluster = self.cluster
        states = cluster.states()
        ring_ids = {cluster.hosts[pid].controller.ring_id for pid in members}
        rings = set(cluster.rings().values())
        return (
            all(states.get(pid) == "operational" for pid in members)
            and len(ring_ids) == 1
            and None not in ring_ids
            and len(rings) == 1
            and tuple(sorted(next(iter(rings)))) == members
        )

    async def wait(self, check, timeout: float) -> bool:
        # ``timeout`` is wall-clock and simulated waiting costs none: the
        # bound here is 8 simulated seconds, whichever wait it is.
        return poll(self.cluster, check, slice=0.02, slices=400)


class _RealRing:
    """Loopback :class:`RingNode` processes as a replay substrate: waits
    are wall-clock deadlines, crash and restart stop and spawn nodes."""

    def __init__(
        self, workload: RealtimeWorkload, observer: Optional[ProtocolObserver]
    ) -> None:
        self.tap = ConformanceTap()
        self.observer = observer
        self.addresses = ephemeral_ring_addresses(range(workload.num_hosts))
        self.nodes: Dict[int, RingNode] = {}
        #: Summed over every node stopped so far, crashed ones included.
        self.decode_errors = 0

    async def spawn(self, pid: int) -> None:
        node = RingNode(
            pid, self.addresses, timeouts=FLEET_TIMEOUTS, observer=self.observer
        )
        tap = self.tap
        node.on_deliver = lambda messages, config_id: tap.on_deliver_batch(
            pid, messages, config_id, config_id
        )
        node.on_config = lambda configuration: tap.on_config(pid, configuration)
        self.nodes[pid] = node
        await node.start()

    async def stop(self) -> None:
        for node in self.nodes.values():
            await node.stop()
            self.decode_errors += node.decode_errors

    def submit(self, pid: int, label: bytes) -> None:
        self.nodes[pid].submit(payload=label)

    async def crash(self, pid: int) -> None:
        node = self.nodes.pop(pid)
        await node.stop()
        self.decode_errors += node.decode_errors

    async def restart(self, pid: int) -> None:
        self.tap.on_restart(pid)
        await self.spawn(pid)

    def live_pids(self) -> List[int]:
        return sorted(self.nodes)

    def ring_is(self, members: Tuple[int, ...]) -> bool:
        # Same stable-ring condition as the sim side: one shared config
        # id across every live node, not merely identical member tuples.
        nodes = self.nodes
        ring_ids = {nodes[pid].ring_id for pid in members}
        return (
            all(
                nodes[pid].state == "operational"
                and tuple(nodes[pid].members) == members
                for pid in members
            )
            and len(ring_ids) == 1
            and None not in ring_ids
        )

    async def wait(self, check, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while not check():
            if time.monotonic() > deadline:
                return False
            await asyncio.sleep(0.01)
        return True


def _crashed(workload: RealtimeWorkload) -> frozenset:
    return frozenset({workload.num_hosts - 1}) if workload.crash else frozenset()


def run_sim_serialized(
    workload: RealtimeWorkload, observer: Optional[ProtocolObserver] = None
) -> VariantRun:
    """Replay the serialized schedule on the membership simulator."""
    ring = _SimRing(workload, observer)
    ring.cluster.start()
    converged = asyncio.run(_replay(ring, workload))
    return VariantRun.judged(
        "sim", ring.cluster, ring.tap, converged, _crashed(workload), traffic_base=0.0
    )


async def _run_real_serialized_async(
    workload: RealtimeWorkload, observer: Optional[ProtocolObserver]
) -> VariantRun:
    ring = _RealRing(workload, observer)
    try:
        for pid in range(workload.num_hosts):
            await ring.spawn(pid)
        converged = await _replay(ring, workload)
        final_members = tuple(ring.live_pids())
        if ring.nodes:
            any_pid = next(iter(ring.nodes))
            final_members = tuple(sorted(ring.nodes[any_pid].members))
    finally:
        await ring.stop()

    divergences = []
    if ring.decode_errors:
        # A malformed datagram is a failure whatever the streams say.
        divergences.append(
            ConformanceDivergence(
                kind="decode",
                variant_a="real",
                variant_b="real",
                phase="run",
                detail=f"the real nodes dropped {ring.decode_errors} "
                "malformed datagram(s)",
            )
        )
    return VariantRun(
        variant="real",
        streams=ring.tap.streams,
        evs_violation=None,  # the EVS checker needs the sim's omniscience
        converged=converged,
        final_members=final_members,
        traffic_base=0.0,
        sim_time=0.0,  # wall clock only
        crashed_pids=_crashed(workload),
        divergences=divergences,
    )


def run_real_serialized(
    workload: RealtimeWorkload, observer: Optional[ProtocolObserver] = None
) -> VariantRun:
    """Replay the serialized schedule on real loopback UDP nodes."""
    return asyncio.run(_run_real_serialized_async(workload, observer))

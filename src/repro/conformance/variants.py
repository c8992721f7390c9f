"""Running one conformance workload through each protocol variant.

A *variant* is one implementation the paper compares: the original Totem
ring, the Accelerated Ring, and the Spread-daemon path (accelerated
protocol, Spread CPU-cost profile, and the toolkit's packing +
fragmentation layers between the application payload and the ordered
message).  Every variant runs the identical
:class:`~repro.conformance.workload.Workload` and fault plan on the
deterministic simulator; a :class:`ConformanceTap` records each
participant's delivery stream — application labels interleaved with
configuration changes — for the differential oracle to compare.

Like the :class:`~repro.evs.checker.EvsChecker`, the tap is independent
of the protocol implementation: it sees only delivered payloads, so an
ordering bug cannot hide by also corrupting the recording side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.messages import DeliveryService
from repro.faults.drive import boot, wait_converged
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.observer import ProtocolObserver
from repro.sim.build import ClusterBuilder
from repro.sim.membership_driver import DeliveryTap, MembershipCluster
from repro.sim.profiles import DAEMON, SPREAD
from repro.spread.fragmentation import Fragmenter, FragmentReassembler
from repro.spread.packing import Packer, unpack_payload
from repro.spread.wire import AppData, Fragment, decode_envelope
from repro.conformance.workload import Workload, make_label
from repro.util.errors import ConfigurationError

#: The implementations under differential test, in comparison order (the
#: first listed is the baseline the others are compared against).
VARIANT_NAMES: Tuple[str, ...] = ("original", "accelerated", "spread")

#: Stream event kinds recorded by the tap.
MSG, CONFIG, RESTART, MARK = "m", "c", "r", "mark"

#: Phase marker names.
PHASE_MAIN, PHASE_PROBE = "main", "probe"

#: Settle time after the probe bursts finish.
_PROBE_TAIL = 0.3


class ConformanceTap(DeliveryTap):
    """Records per-participant delivery streams with phase markers.

    Stream events are tuples: ``("m", label)`` for an application
    payload, ``("c", config_id, transitional)`` for a configuration
    install, ``("r",)`` for a process restart, and ``("mark", name)``
    for a harness phase boundary.  With ``decode=True`` the tap runs the
    Spread unpacking pipeline — containers are expanded and fragments
    reassembled (per receiving participant, keyed by origin) — so the
    recorded labels are application-level regardless of how the toolkit
    layered them onto ordered messages.
    """

    def __init__(self, decode: bool = False) -> None:
        self.decode = decode
        self.streams: Dict[int, List[tuple]] = {}
        self._reassemblers: Dict[int, FragmentReassembler] = {}

    def _stream(self, pid: int) -> List[tuple]:
        return self.streams.setdefault(pid, [])

    def mark(self, name: str, pids) -> None:
        for pid in pids:
            self._stream(pid).append((MARK, name))

    def on_deliver_batch(self, pid, messages, config_id, origin_ring) -> None:
        stream = self._stream(pid)
        for message in messages:
            payload = bytes(message.payload)
            if not self.decode:
                stream.append((MSG, payload))
                continue
            for envelope_bytes in unpack_payload(payload):
                envelope = decode_envelope(envelope_bytes)
                if isinstance(envelope, Fragment):
                    reassembler = self._reassemblers.setdefault(
                        pid, FragmentReassembler()
                    )
                    whole = reassembler.accept(message.pid, envelope)
                    if whole is None:
                        continue
                    envelope = decode_envelope(whole)
                if isinstance(envelope, AppData):
                    stream.append((MSG, envelope.payload))

    def on_config(self, pid, configuration) -> None:
        self._stream(pid).append(
            (CONFIG, configuration.config_id, configuration.transitional)
        )

    def on_restart(self, pid) -> None:
        # The restarted process lost its partial reassembly state along
        # with everything else volatile.
        self._reassemblers.pop(pid, None)
        self._stream(pid).append((RESTART,))


@dataclass
class VariantRun:
    """Everything the oracle needs from one variant's run."""

    variant: str
    streams: Dict[int, List[tuple]]
    evs_violation: Optional[str]
    converged: bool
    final_members: Tuple[int, ...]
    traffic_base: float
    sim_time: float
    crashed_pids: frozenset = frozenset()
    cluster: Optional[MembershipCluster] = field(default=None, repr=False)
    #: Malformed datagrams the run's real nodes dropped, summed (the
    #: simulator has none).
    decode_errors: int = 0

    @classmethod
    def judged(
        cls, variant, cluster, tap, converged, crashed, traffic_base
    ) -> "VariantRun":
        """The run a finished simulator drive leaves behind: the tap's
        streams, the EVS verdict (``crashed`` waived), the final ring."""
        rings = sorted(set(cluster.rings().values()))
        return cls(
            variant=variant,
            streams=tap.streams,
            evs_violation=cluster.checker.violation(crashed=crashed),
            converged=converged,
            final_members=tuple(sorted(rings[0] if rings else ())),
            traffic_base=traffic_base,
            sim_time=cluster.sim.now,
            crashed_pids=frozenset(crashed),
            cluster=cluster,
        )

    @property
    def deliveries(self) -> int:
        """Application messages delivered, summed over every stream."""
        return sum(
            1
            for stream in self.streams.values()
            for event in stream
            if event[0] == MSG
        )

    def labels(self, pid: int, phase: Optional[str] = None) -> List[bytes]:
        """The delivered labels of ``pid``, optionally one phase only."""
        out: List[bytes] = []
        inside = phase is None
        for event in self.streams.get(pid, []):
            if event[0] == MARK:
                inside = phase is None or event[1] == phase
            elif event[0] == MSG and inside:
                out.append(event[1])
        return out

    def calm_prefix(self, pid: int) -> List[bytes]:
        """Labels delivered after the main marker, up to the first
        membership transition — the region where cross-variant order
        must match exactly even under faults."""
        out: List[bytes] = []
        inside = False
        for event in self.streams.get(pid, []):
            if event[0] == MARK:
                if event[1] == PHASE_MAIN:
                    inside = True
                elif inside:
                    break
            elif inside:
                if event[0] == MSG:
                    out.append(event[1])
                else:  # a config install or restart ends the calm region
                    break
        return out


class _SpreadPipeline:
    """Per-sender packing + fragmentation, mirroring the daemon's
    eager-flush submit path (:meth:`SpreadDaemon._submit_envelope`)."""

    def __init__(self, num_hosts: int) -> None:
        self.packers = {pid: Packer() for pid in range(num_hosts)}
        # Fragment ids persist across restarts on purpose: a restarted
        # daemon must not reuse a frag id its old incarnation already
        # put into the order.
        self.fragmenters = {pid: Fragmenter() for pid in range(num_hosts)}

    def payloads(self, pid: int, label: bytes) -> List[bytes]:
        envelope = AppData(
            sender=f"h{pid}", groups=("conformance",), payload=label
        ).encode()
        out: List[bytes] = []
        packer = self.packers[pid]
        for piece in self.fragmenters[pid].fragment(envelope):
            out.extend(packer.add(piece))
        out.extend(packer.flush())
        return out


def run_variant(
    variant: str,
    workload: Workload,
    plan: Optional[FaultPlan] = None,
    seed: int = 0,
    observer: Optional[ProtocolObserver] = None,
) -> VariantRun:
    """Drive ``workload`` (+ optional ``plan``) through one variant.

    The drive has four deterministic phases: boot, the main burst window
    (faults armed relative to its start), a quiesce + reconvergence poll
    (heal, resume, restart, then fixed 50 ms steps until every live host
    is operational on one shared ring), and a probe burst round on the
    reformed ring.  The tap marks the main and probe phases so the
    oracle can compare like against like.
    """
    if variant not in VARIANT_NAMES:
        raise ConfigurationError(
            f"unknown variant {variant!r}; choose from {VARIANT_NAMES}"
        )
    spread = variant == "spread"
    tap = ConformanceTap(decode=spread)
    builder = (
        ClusterBuilder()
        .hosts(workload.num_hosts)
        .membership()
        .accelerated(variant != "original")
        .profile(SPREAD if spread else DAEMON)
        .tap(tap)
    )
    if workload.config is not None:
        builder.config(workload.config)
    builder.adverse_network(workload.fabric_racks, workload.impair, seed=seed)
    if observer is not None:
        builder.observe(observer)
    cluster = builder.build_membership()
    pipeline = _SpreadPipeline(workload.num_hosts) if spread else None
    next_index: Dict[int, int] = {}

    def submit_label(pid: int, oversized: bool) -> None:
        host = cluster.hosts[pid]
        index = next_index.get(pid, 0)
        next_index[pid] = index + 1
        if not cluster.accepting(pid):
            return  # the label index is consumed either way
        label = make_label(
            pid, index, pad_to=workload.oversized_bytes if oversized else 0
        )
        if pipeline is None:
            host.submit(
                payload=label,
                service=DeliveryService.AGREED,
                payload_size=workload.label_size(label),
            )
            return
        for payload in pipeline.payloads(pid, label):
            host.submit(
                payload=payload,
                service=DeliveryService.AGREED,
                payload_size=workload.label_size(payload),
            )

    def burst(pid: int, count: int, round_index: int):
        def fire() -> None:
            for offset in range(count):
                oversized = (
                    round_index == 0
                    and workload.oversized_index is not None
                    and offset == workload.oversized_index
                )
                submit_label(pid, oversized)

        return fire

    # Phase 0: boot.
    base = boot(cluster)

    # Phase 1: main bursts, faults armed at the phase boundary.
    tap.mark(PHASE_MAIN, range(workload.num_hosts))
    armed = plan is not None and len(plan) > 0
    if armed:
        FaultInjector(cluster, plan, rng=random.Random(seed)).arm()
    when = base
    for round_index in range(workload.rounds):
        for pid in range(workload.num_hosts):
            cluster.sim.schedule_at(
                when, burst(pid, workload.burst_size, round_index)
            )
            when += workload.burst_spacing
    window = when - base
    if armed:
        window = max(window, plan.horizon)
    cluster.run(window + 0.1)

    # Phase 2: quiesce — restarting what the plan left crashed, so the
    # probe runs on a full ring — and poll for reconvergence.
    crashed = plan.crashed_pids() if plan is not None else frozenset()
    cluster.quiesce(restart=crashed)
    cluster.run(0.05)
    converged = wait_converged(cluster, slice=0.05, slices=59)

    # Phase 3: probe bursts on the reformed ring.
    live = cluster.live_pids()
    tap.mark(PHASE_PROBE, live)
    when = cluster.sim.now + 0.005
    for pid in live:
        cluster.sim.schedule_at(when, burst(pid, workload.probe_burst, -1))
        when += workload.burst_spacing
    cluster.run((when - cluster.sim.now) + _PROBE_TAIL)

    return VariantRun.judged(variant, cluster, tap, converged, crashed, base)

"""N independent rings on one simulated fabric.

:class:`MultiRingCluster` runs ``num_rings`` Accelerated (or original)
rings side by side on a single deterministic :class:`~repro.net.
simulator.Simulator`.  Each ring is a complete, independent stack —
its own switch, hosts, and (in membership mode) its own
:class:`~repro.membership.controller.MembershipController` ring with a
dedicated :class:`~repro.evs.checker.EvsChecker` — so per-ring
guarantees are exactly the single-ring guarantees, and a fault on one
ring cannot touch another except through the shared wall clock.

Group traffic routes through a :class:`~repro.multiring.shard_map.
ShardMap`: ``submit("chat", b"...")`` lands on the ring that owns
``"chat"`` and every daemon on that ring delivers it in the ring's
total order.  Subscribers spanning rings read
:meth:`MultiRingCluster.merged_stream`, the deterministic round-robin
merge of the per-ring orders (:mod:`repro.multiring.merge`).

Two modes, one fabric:

* **membership mode** (default) — full membership + EVS stacks; the
  conformance and chaos layers drive this one.
* **protocol mode** (``membership=False``) — bare ordering engines
  (:class:`~repro.sim.cluster.RingCluster` per ring) for the scaling
  benchmarks; exposes the same ``drivers``/``aggregate()`` surface the
  single-ring workload generators and the benchmark window already use,
  with globally unique pids ``ring_index * hosts_per_ring + local``.

Build through :class:`repro.sim.build.ClusterBuilder` — a single ring
is just the N=1 case of the same spec.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.messages import DeliveryService
from repro.net.simulator import Simulator
from repro.multiring.merge import merge_streams
from repro.multiring.shard_map import ShardMap, stable_hash
from repro.sim.cluster import ClusterStats
from repro.sim.driver import ProtocolHost
from repro.util.errors import ConfigurationError, FaultError
from repro.util.stats import LatencyStats

#: Stream event kinds recorded by the per-ring group taps.
MSG, CONFIG, RESTART = "m", "c", "r"


def encode_group_payload(group: str, payload: bytes) -> bytes:
    """Frame ``payload`` with its target group for transport on a ring."""
    name = group.encode("utf-8")
    if len(name) > 0xFFFF:
        raise ConfigurationError(f"group name too long: {group!r}")
    return struct.pack("!H", len(name)) + name + payload


def decode_group_payload(data: bytes) -> Tuple[Optional[str], bytes]:
    """Inverse of :func:`encode_group_payload` (``data`` is ``bytes``).

    Returns ``(None, data)`` for frames that were not group-framed, so
    taps stay safe against raw submissions.
    """
    if len(data) < 2:
        return None, data
    (length,) = struct.unpack_from("!H", data)
    if len(data) < 2 + length:
        return None, data
    try:
        group = data[2 : 2 + length].decode("utf-8")
    except UnicodeDecodeError:
        return None, data
    return group, data[2 + length :]


#: Decoded group framings a tap keeps for the pids that have not yet
#: delivered them; a full memo is simply emptied.
_FRAMING_MEMO = 256


class GroupStreamTap:
    """Per-ring delivery tap recording group-framed streams per pid.

    Events are ``("m", group, payload)``, ``("c", config_id,
    transitional)``, and ``("r",)`` — the group-aware mirror of the
    conformance tap, shared by the merge API and the sharded oracle.
    (Duck-typed to :class:`~repro.sim.membership_driver.DeliveryTap`.)
    """

    def __init__(self) -> None:
        self.streams: Dict[int, List[tuple]] = {}
        #: Live subscribers (e.g. replicated state machines in
        #: :mod:`repro.apps`): duck-typed objects with ``on_deliver(pid,
        #: group, payload, config_id, origin_ring)``, ``on_config(pid,
        #: configuration)``, and ``on_restart(pid)`` hooks, called in
        #: exact delivery order as events happen — where :meth:`labels`
        #: is a post-hoc read, listeners see the stream *during* the
        #: run, so they can interact with fault timing.
        self.listeners: List[object] = []
        #: Delivered bytes -> ``(group, payload)``: every pid of the ring
        #: delivers the same message, whose framing is decoded once.
        self._framings: Dict[bytes, Tuple[Optional[str], bytes]] = {}

    def add_listener(self, listener: object) -> None:
        """Subscribe ``listener`` to live delivery/config/restart events."""
        self.listeners.append(listener)

    def _stream(self, pid: int) -> List[tuple]:
        return self.streams.setdefault(pid, [])

    def on_deliver_batch(self, pid, messages, config_id, origin_ring) -> None:
        stream_append = self._stream(pid).append
        listeners = self.listeners
        framings = self._framings
        for message in messages:
            data = bytes(message.payload)
            framing = framings.get(data)
            if framing is None:
                if len(framings) >= _FRAMING_MEMO:
                    framings.clear()
                framing = framings[data] = decode_group_payload(data)
            group, payload = framing
            stream_append((MSG, group, payload))
            for listener in listeners:
                listener.on_deliver(pid, group, payload, config_id, origin_ring)

    def on_config(self, pid, configuration) -> None:
        self._stream(pid).append(
            (CONFIG, configuration.config_id, configuration.transitional)
        )
        for listener in self.listeners:
            listener.on_config(pid, configuration)

    def on_restart(self, pid) -> None:
        self._stream(pid).append((RESTART,))
        for listener in self.listeners:
            listener.on_restart(pid)

    def labels(
        self, pid: int, groups: Optional[Iterable[str]] = None
    ) -> List[Tuple[str, bytes]]:
        """``(group, payload)`` deliveries of ``pid``, optionally
        restricted to ``groups``."""
        wanted = None if groups is None else set(groups)
        out: List[Tuple[str, bytes]] = []
        for event in self.streams.get(pid, []):
            if event[0] != MSG or event[1] is None:
                continue
            if wanted is None or event[1] in wanted:
                out.append((event[1], event[2]))
        return out


class MultiRingCluster:
    """Independent rings sharing one simulator.

    Holds finished rings — it builds nothing itself; :meth:`repro.sim.
    build.ClusterBuilder.build_multiring` assembles each ring (and its
    :class:`GroupStreamTap` in membership mode) and hands them over.
    """

    def __init__(
        self,
        sim: Simulator,
        rings: Sequence[object],
        taps: Sequence[GroupStreamTap],
        shard_map: ShardMap,
        membership: bool,
        observer=None,
    ) -> None:
        if shard_map.num_rings != len(rings):
            raise ConfigurationError(
                f"shard map covers {shard_map.num_rings} rings, "
                f"cluster has {len(rings)}"
            )
        self.sim = sim
        self.rings: List[object] = list(rings)
        self.taps: List[GroupStreamTap] = list(taps)
        self.shard_map = shard_map
        self.membership = membership
        self.observer = observer
        self.num_rings = len(self.rings)
        self.hosts_per_ring = len(self.rings[0].topology.hosts)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def ring(self, index: int):
        try:
            return self.rings[index]
        except IndexError:
            raise FaultError(
                f"unknown ring {index}: cluster has rings 0..{self.num_rings - 1}"
            ) from None

    #: Protocol-mode rings get their initial token ``index * RING_STAGGER``
    #: seconds apart.  Started simultaneously, N identical closed-loop
    #: rings are bit-for-bit clones of each other — every per-ring metric
    #: (the scaling suite's ``latency_us`` most visibly) collapses to the
    #: single-ring value, which hides any cross-ring interference a real
    #: deployment would see.  A sub-token-rotation offset de-phases the
    #: rings while staying far below the workload start time, so it costs
    #: no measured window.  Deterministic: same seed-free value each run.
    RING_STAGGER = 13.7e-6

    def start(self) -> None:
        if self.membership:
            # Membership-mode start sequencing belongs to the membership
            # protocol itself (and the chaos goldens pin its traces).
            for ring in self.rings:
                ring.start()
            return
        stagger = self.RING_STAGGER
        for index, ring in enumerate(self.rings):
            if index == 0:
                ring.start()
            else:
                self.sim.post(stagger * index, ring.start)

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    # ------------------------------------------------------------------
    # Group-routed traffic (membership mode)
    # ------------------------------------------------------------------

    def ring_of(self, group: str) -> int:
        return self.shard_map.shard_of(group)

    def sender_of(self, group: str) -> int:
        """The canonical submitting pid for ``group`` on its ring.

        Deterministic per group so per-group delivery order is the
        sender's FIFO submission order — the property the cross-topology
        oracle compares.
        """
        return stable_hash(group) % self.hosts_per_ring

    def submit(
        self,
        group: str,
        payload: bytes = b"",
        service: DeliveryService = DeliveryService.AGREED,
        sender: Optional[int] = None,
        payload_size: Optional[int] = None,
    ) -> None:
        """Order ``payload`` within ``group`` on the group's ring."""
        if not self.membership:
            raise ConfigurationError(
                "group-routed submit needs membership mode; protocol-mode "
                "clusters are driven through their per-ring drivers"
            )
        ring_index = self.ring_of(group)
        pid = sender if sender is not None else self.sender_of(group)
        if not self.accepting(ring_index, pid):
            return
        self.rings[ring_index].hosts[pid].submit(
            payload=encode_group_payload(group, payload),
            service=service,
            payload_size=payload_size,
        )

    # ------------------------------------------------------------------
    # Streams and the cross-shard merge
    # ------------------------------------------------------------------

    def group_stream(
        self,
        ring_index: int,
        pid: int,
        groups: Optional[Iterable[str]] = None,
    ) -> List[Tuple[str, bytes]]:
        """``(group, payload)`` deliveries observed by ``pid`` on one ring."""
        return self.taps[ring_index].labels(pid, groups=groups)

    def merged_stream(
        self,
        groups: Sequence[str],
        vantage: Optional[int] = None,
    ) -> List[Tuple[str, bytes]]:
        """The deterministic cross-shard order a subscriber of
        ``groups`` observes.

        ``vantage`` picks the observing pid on every spanned ring
        (default: the lowest live pid per ring).  Because each ring
        delivers the same order to all its members, every vantage — and
        therefore every subscriber of the same group set — computes the
        identical merge.
        """
        shards = self.shard_map.rings_for(groups)
        wanted = set(groups)
        streams: List[List[Tuple[str, bytes]]] = []
        for shard in shards:
            ring = self.rings[shard]
            if vantage is not None:
                pid = vantage
            else:
                live = ring.live_pids()
                pid = live[0] if live else 0
            streams.append(self.group_stream(shard, pid, groups=wanted))
        return merge_streams(streams)

    # ------------------------------------------------------------------
    # Per-shard EVS checking and convergence
    # ------------------------------------------------------------------

    def check_evs(
        self, crashed: Optional[Mapping[int, frozenset]] = None
    ) -> Dict[int, str]:
        """Run every ring's EVS checker; returns ring → violation text
        for the rings that failed (empty dict == all clean).

        ``crashed`` maps ring index → pids whose guarantees that ring
        waives (the standard crashed-incarnation waiver).
        """
        if not self.membership:
            raise ConfigurationError("protocol-mode rings have no EVS checker")
        waived = crashed or {}
        return {
            index: text
            for index, ring in enumerate(self.rings)
            if (text := ring.checker.violation(crashed=waived.get(index, ())))
            is not None
        }

    def converged(self) -> bool:
        """True when every ring has converged (protocol-mode rings have
        no membership to converge)."""
        return not self.membership or all(ring.converged() for ring in self.rings)

    # ------------------------------------------------------------------
    # Drive surface (per ring; faults go to ring(i) itself)
    # ------------------------------------------------------------------

    def quiesce(self, restart: Optional[Mapping[int, Iterable[int]]] = None) -> None:
        """Quiesce every ring; ``restart`` maps ring index → pids."""
        restart = restart or {}
        for index, ring in enumerate(self.rings):
            ring.quiesce(restart=restart.get(index, ()))

    def accepting(self, ring_index: int, pid: int) -> bool:
        return self.ring(ring_index).accepting(pid)

    # ------------------------------------------------------------------
    # Benchmark surface (protocol mode): the single-ring duck type
    # ------------------------------------------------------------------

    @property
    def drivers(self) -> Dict[int, ProtocolHost]:
        """Globally keyed drivers across every ring.

        Global pid = ``ring_index * hosts_per_ring + local_pid``, so the
        existing workload generators drive an N-ring cluster unchanged.
        """
        if self.membership:
            raise ConfigurationError(
                "drivers are a protocol-mode surface; membership clusters "
                "submit through submit(group, ...)"
            )
        merged: Dict[int, ProtocolHost] = {}
        for index, ring in enumerate(self.rings):
            base = index * self.hosts_per_ring
            for pid, driver in ring.drivers.items():
                merged[base + pid] = driver
        return merged

    def driver(self, global_pid: int) -> ProtocolHost:
        return self.drivers[global_pid]

    def set_measure_from(self, time: float) -> None:
        for ring in self.rings:
            ring.set_measure_from(time)

    def aggregate(self) -> ClusterStats:
        """Cluster-wide statistics: latency pooled over every receiver,
        goodput summed across rings (the aggregate ordered-delivery
        rate the sharded system sustains)."""
        if self.membership:
            raise ConfigurationError("aggregate() is a protocol-mode surface")
        latency = LatencyStats()
        goodput = 0.0
        retransmissions = 0
        token_rounds = 0
        messages_sent = 0
        switch_drops = 0
        worst: List[float] = []
        for ring in self.rings:
            stats = ring.aggregate()
            latency.merge(stats.latency)
            goodput += stats.goodput_bps
            retransmissions += stats.retransmissions
            token_rounds = max(token_rounds, stats.token_rounds)
            messages_sent += stats.messages_sent
            switch_drops += stats.switch_drops
            if stats.per_sender_worst_5pct_mean:
                worst.append(stats.per_sender_worst_5pct_mean)
        return ClusterStats(
            latency=latency,
            goodput_bps=goodput,
            retransmissions=retransmissions,
            token_rounds=token_rounds,
            messages_sent=messages_sent,
            switch_drops=switch_drops,
            per_sender_worst_5pct_mean=(sum(worst) / len(worst)) if worst else 0.0,
        )

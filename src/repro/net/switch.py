"""Store-and-forward switch with bounded per-port output buffers.

Multicast frames are replicated to every attached port except the
ingress port, the way an IGMP-snooping data-center switch delivers
IP-multicast on a LAN.  Each output port serializes independently at the
link rate; when two hosts transmit simultaneously (which the Accelerated
Ring protocol deliberately provokes) the frames interleave in the port
buffers instead of colliding — this buffering is the physical mechanism
behind the protocol's controlled parallelism.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, List, Tuple

from repro.core.transport_core import FrameRing
from repro.net.packet import Frame
from repro.net.params import NetworkParams
from repro.net.simulator import Simulator


class OutputPort:
    """One switch output port: a bounded byte queue draining at link rate."""

    def __init__(
        self,
        sim: Simulator,
        params: NetworkParams,
        deliver: Callable[[Frame], None],
    ) -> None:
        self._sim = sim
        self._params = params
        self._deliver = deliver
        self._ring = FrameRing()
        self._queued_bytes = 0
        self._busy = False
        # Hoisted for the per-frame hot path; must reproduce
        # params.serialization_delay(size) bit-for-bit.
        self._overhead = params.per_frame_overhead
        self._rate_bps = params.rate_bps
        self._propagation = params.propagation
        self._capacity = params.switch_buffer_bytes
        self.frames_forwarded = 0
        self.frames_dropped = 0
        self.peak_queue_bytes = 0

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def enqueue(self, frame: Frame) -> bool:
        size = frame.size
        queued = self._queued_bytes + size
        if queued > self._capacity:
            self.frames_dropped += 1
            return False
        # FrameRing.push inlined (one call per forwarded copy saved);
        # must mirror the method exactly.
        ring = self._ring
        tail = ring._tail
        if tail - ring._head > ring._mask:
            ring._grow()
            tail = ring._tail
        ring._slots[tail & ring._mask] = frame
        ring._tail = tail + 1
        self._queued_bytes = queued
        if queued > self.peak_queue_bytes:
            self.peak_queue_bytes = queued
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        ring = self._ring
        head = ring._head
        if head == ring._tail:
            self._busy = False
            return
        self._busy = True
        slots = ring._slots
        index = head & ring._mask
        frame = slots[index]
        slots[index] = None
        ring._head = head + 1
        size = frame.size
        self._queued_bytes -= size
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        heappush(
            sim._queue,
            (sim.now + (size + self._overhead) * 8.0 / self._rate_bps, seq, self._finish, (frame,)),
        )

    def _finish(self, frame: Frame) -> None:
        # Hot path (one call per frame per output port): propagation post
        # and next serialization start pushed straight onto the simulator
        # heap, in the same order Simulator.post would assign.
        self.frames_forwarded += 1
        sim = self._sim
        queue = sim._queue
        sim._seq = seq = sim._seq + 1
        heappush(queue, (sim.now + self._propagation, seq, self._deliver, (frame,)))
        ring = self._ring
        head = ring._head
        if head == ring._tail:
            self._busy = False
            return
        slots = ring._slots
        index = head & ring._mask
        frame = slots[index]
        slots[index] = None
        ring._head = head + 1
        size = frame.size
        self._queued_bytes -= size
        sim._seq = seq = sim._seq + 1
        heappush(
            queue,
            (sim.now + (size + self._overhead) * 8.0 / self._rate_bps, seq, self._finish, (frame,)),
        )


class Switch:
    """A single switch connecting every host in the (star) testbed."""

    def __init__(self, sim: Simulator, params: NetworkParams) -> None:
        self._sim = sim
        self._params = params
        self._latency = params.switch_latency
        self._ports: Dict[int, OutputPort] = {}
        #: (host_id, port) pairs frozen at attach time; the multicast
        #: fan-out loop iterates this tuple instead of a dict view (one
        #: fewer iterator protocol round-trip per ingress frame).
        self._fanout: Tuple[Tuple[int, OutputPort], ...] = ()
        self.frames_received = 0
        self.frames_partitioned = 0
        self.frames_filtered = 0
        self._partition: Dict[int, int] = {}  # host -> partition group
        #: Frame filters: callables ``fn(frame, dst) -> bool`` consulted once
        #: per (frame, destination) pair during forwarding; any True drops
        #: that copy.  The fault injector installs these for token drops and
        #: link-level loss without monkey-patching the forwarding path.
        self._filters: List[Callable[[Frame, int], bool]] = []

    def set_partition(self, *groups) -> None:
        """Partition the network: frames cross only within a group.

        Hosts not named in any group form an implicit group of their own.
        Call :meth:`heal` to restore full connectivity — the membership
        layer will then merge the rings.
        """
        self._partition = {}
        for index, group in enumerate(groups):
            for host_id in group:
                self._partition[host_id] = index

    def heal(self) -> None:
        """Remove any partition."""
        self._partition = {}

    def add_filter(self, fn: Callable[[Frame, int], bool]) -> None:
        """Install a drop filter (see ``_filters``)."""
        self._filters.append(fn)

    def remove_filter(self, fn: Callable[[Frame, int], bool]) -> None:
        """Remove a previously installed filter (no-op if absent)."""
        try:
            self._filters.remove(fn)
        except ValueError:
            pass

    def _filtered(self, frame: Frame, dst: int) -> bool:
        if not self._filters:
            return False
        for fn in list(self._filters):
            if fn(frame, dst):
                self.frames_filtered += 1
                return True
        return False

    def _connected(self, src: int, dst: int) -> bool:
        if not self._partition:
            return True
        default = -1
        return self._partition.get(src, default) == self._partition.get(dst, default)

    def attach(self, host_id: int, deliver: Callable[[Frame], None]) -> None:
        if host_id in self._ports:
            raise ValueError(f"host {host_id} already attached")
        self._ports[host_id] = OutputPort(self._sim, self._params, deliver)
        self._fanout = tuple(self._ports.items())

    def port(self, host_id: int) -> OutputPort:
        return self._ports[host_id]

    @property
    def total_drops(self) -> int:
        return sum(port.frames_dropped for port in self._ports.values())

    def ingress(self, frame: Frame) -> None:
        """A frame has fully arrived from a host NIC."""
        self.frames_received += 1
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        heappush(
            sim._queue,
            (sim.now + self._latency, seq, self._forward, (frame,)),
        )

    def _forward(self, frame: Frame) -> None:
        # Hot path: partition/filter checks are hoisted so the common
        # (unpartitioned, unfiltered) case costs no extra method calls.
        partition = self._partition
        filters = self._filters
        if frame.dst is None:
            src = frame.src
            clone_for = frame.clone_for
            for host_id, port in self._fanout:
                if host_id == src:
                    continue
                if partition and not self._connected(src, host_id):
                    self.frames_partitioned += 1
                    continue
                if filters and self._filtered(frame, host_id):
                    continue
                port.enqueue(clone_for(host_id))
            # The fan-out copies are what travels on; the ingress original
            # is dead now and can return to the frame pool.
            frame.recycle()
        else:
            port = self._ports.get(frame.dst)
            if port is None:
                raise KeyError(f"frame for unattached host {frame.dst}")
            if partition and not self._connected(frame.src, frame.dst):
                self.frames_partitioned += 1
                return
            if filters and self._filtered(frame, frame.dst):
                return
            port.enqueue(frame)

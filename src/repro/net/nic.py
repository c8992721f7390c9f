"""Host network interface: a serializing transmit queue.

The NIC accepts frames from the host CPU instantly (the CPU cost of the
send system call is modelled separately by the host profile) and puts them
on the wire one at a time at the link rate.  The frame reaches the switch
ingress after serialization plus propagation.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Optional

from repro.core.transport_core import FrameRing
from repro.net.packet import Frame
from repro.net.params import NetworkParams
from repro.net.simulator import Simulator


class Nic:
    """Transmit side of a host's network interface."""

    def __init__(
        self,
        sim: Simulator,
        params: NetworkParams,
        on_wire: Callable[[Frame], None],
        tx_queue_bytes: Optional[int] = None,
    ) -> None:
        self._sim = sim
        self._params = params
        self._on_wire = on_wire
        self._ring = FrameRing()
        self._queued_bytes = 0
        self._capacity = tx_queue_bytes if tx_queue_bytes is not None else 4 * 1024 * 1024
        self._busy = False
        # Hoisted for the per-frame hot path; must reproduce
        # params.serialization_delay(size) bit-for-bit.
        self._overhead = params.per_frame_overhead
        self._rate_bps = params.rate_bps
        self._propagation = params.propagation
        self.frames_sent = 0
        self.frames_dropped = 0
        self.bytes_sent = 0

    @property
    def queue_depth(self) -> int:
        ring = self._ring
        return ring._tail - ring._head

    def send(self, frame: Frame) -> bool:
        """Enqueue a frame for transmission.

        Returns False (and counts a drop) if the transmit queue is full —
        with the protocol's flow control working this should not happen, and
        tests assert it does not.
        """
        if self._queued_bytes + frame.size > self._capacity:
            self.frames_dropped += 1
            return False
        # FrameRing.push inlined (one call per frame sent saved); must
        # mirror the method exactly.
        ring = self._ring
        tail = ring._tail
        if tail - ring._head > ring._mask:
            ring._grow()
            tail = ring._tail
        ring._slots[tail & ring._mask] = frame
        ring._tail = tail + 1
        self._queued_bytes += frame.size
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
        # Hot path (one call per frame serialized): the propagation post
        # and the next serialization start are pushed straight onto the
        # simulator heap in the same order Simulator.post would assign.
        size = frame.size
        self.frames_sent += 1
        self.bytes_sent += size
        sim = self._sim
        queue = sim._queue
        sim._seq = seq = sim._seq + 1
        heappush(queue, (sim.now + self._propagation, seq, self._on_wire, (frame,)))
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

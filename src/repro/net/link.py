"""A link: a bounded, tail-dropping transmit queue that serializes frames
at the link rate and hands each one on after the propagation delay.

It is every serializing hop of the testbed.  As a host NIC it accepts
frames from the host CPU instantly (the send system call's CPU cost is
modelled by the host profile) and puts them on the wire toward the
host's switch.  As a switch output port — toward a host, or over a
leaf↔spine trunk — it is the store-and-forward buffer: when two hosts
transmit at once (which the Accelerated Ring protocol deliberately
provokes) their frames interleave in the port buffer instead of
colliding, and that buffering is the physical mechanism behind the
protocol's controlled parallelism.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Optional

from repro.net.packet import Frame
from repro.net.params import NetworkParams
from repro.net.simulator import Simulator

#: Transmit-queue capacity of a host NIC (switch ports and trunks hold
#: ``NetworkParams.switch_buffer_bytes``).
NIC_QUEUE_BYTES = 4 * 1024 * 1024


class Link:
    """One direction of a wire: a byte-bounded FIFO draining at link rate."""

    def __init__(
        self,
        sim: Simulator,
        params: NetworkParams,
        deliver: Callable[[Frame], None],
        capacity: int,
    ) -> None:
        self._sim = sim
        self._deliver = deliver
        self._frames: Deque[Frame] = deque()
        self._queued_bytes = 0
        self._capacity = capacity
        self._busy = False
        # Hoisted for the per-frame hot path; must reproduce
        # params.serialization_delay(size) bit-for-bit.
        self._overhead = params.per_frame_overhead
        self._rate_bps = params.rate_bps
        self._propagation = params.propagation
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_dropped = 0
        self.peak_queue_bytes = 0
        #: Shown every frame :meth:`send` is handed, before the queue
        #: sees it (a host NIC's transmit record; see
        #: :mod:`repro.analysis.ledger`, the only module that sets it).
        self.tap: Optional[Callable[[Frame], None]] = None

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def send(self, frame: Frame) -> bool:
        """Enqueue a frame for transmission.

        Returns False (and counts a drop) when the queue is full.  On a
        host NIC, with the protocol's flow control working, this should
        not happen, and tests assert it does not; on a switch port it is
        the tail drop of an overrun buffer.
        """
        if self.tap is not None:
            self.tap(frame)
        size = frame.size
        queued = self._queued_bytes + size
        if queued > self._capacity:
            self.frames_dropped += 1
            return False
        if queued > self.peak_queue_bytes:
            self.peak_queue_bytes = queued
        if not self._busy:
            # An idle link holds nothing (it goes idle only on an empty
            # queue), so the frame starts serializing at once: the push,
            # the pop and the byte count would cancel out.  Same sequence
            # number and finish-time expression as _finish's next start.
            self._busy = True
            sim = self._sim
            sim._seq = seq = sim._seq + 1
            heappush(
                sim._queue,
                (sim.now + (size + self._overhead) * 8.0 / self._rate_bps, seq, self._finish, (frame,)),
            )
            return True
        self._frames.append(frame)
        self._queued_bytes = queued
        return True

    def _finish(self, frame: Frame) -> None:
        # Hot path (one call per frame serialized): the propagation post
        # and the next serialization start are pushed straight onto the
        # simulator heap in the same order Simulator.post would assign.
        self.frames_sent += 1
        self.bytes_sent += frame.size
        sim = self._sim
        queue = sim._queue
        sim._seq = seq = sim._seq + 1
        heappush(queue, (sim.now + self._propagation, seq, self._deliver, (frame,)))
        frames = self._frames
        if not frames:
            self._busy = False
            return
        frame = frames.popleft()
        size = frame.size
        self._queued_bytes -= size
        sim._seq = seq = sim._seq + 1
        heappush(
            queue,
            (sim.now + (size + self._overhead) * 8.0 / self._rate_bps, seq, self._finish, (frame,)),
        )

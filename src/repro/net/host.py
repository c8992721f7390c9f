"""Simulated host: receive sockets, a single-threaded CPU, and a NIC.

The host mirrors the implementation architecture described in paper
§III-E: token and data messages arrive on *separate sockets* so the
protocol can prioritize one message type over the other, and all protocol
work (receiving, sending, delivering) runs on one CPU core — the paper is
explicit that the daemon must not consume more than a single core.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Optional, List

from repro.core.transport_core import ByteWindow
from repro.net.fragment import fragment_datagram
from repro.net.loss import LossModel, NoLoss
from repro.net.link import NIC_QUEUE_BYTES, Link
from repro.net.packet import Frame, PortKind
from repro.net.params import NetworkParams
from repro.net.simulator import Simulator

# Hoisted enum member for the receive hot path (one global load instead of
# a module global plus an enum attribute lookup per frame).
_DATA = PortKind.DATA


class SocketBuffer(ByteWindow):
    """A bounded kernel receive buffer for one UDP socket.

    Admission accounting (capacity, drop counting, peak depth) comes
    from the shared :class:`~repro.core.transport_core.ByteWindow`;
    frames sit in a ``collections.deque``, whose push, pop and emptiness
    test are C calls.  ``SimHost.receive`` inlines the admission against
    the same field names, and the drivers' receive selection pops the
    deque directly.
    """

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._frames: Deque[Frame] = deque()

    def __len__(self) -> int:
        return len(self._frames)

    def push(self, frame: Frame) -> bool:
        """Enqueue an arriving frame; False means kernel-buffer overflow."""
        if not self.try_reserve(frame.size):
            return False
        self._frames.append(frame)
        return True

    def pop(self) -> Frame:
        frame = self._frames.popleft()
        self._queued_bytes -= frame.size
        return frame

    def clear(self) -> None:
        """Drop every queued frame (kernel buffers are volatile state)."""
        self._frames.clear()
        self._queued_bytes = 0


class Cpu:
    """A single-threaded CPU.

    Work is either *submitted* explicitly (``submit``) or pulled by the
    ``idle_hook`` when the explicit queue is empty.  The protocol driver
    installs an idle hook that reads the next frame from the sockets
    according to the current token/data priority (paper §III-D); explicit
    submissions model work the protocol has already committed to (e.g. the
    sends making up the pre-token and post-token multicast phases).
    Either way a task is a ``(cost, fn, args)`` tuple; the hook returns
    ``None`` when there is nothing to do.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._queue: Deque[tuple] = deque()
        self._busy = False
        self._stalled = False
        self.idle_hook: Optional[Callable[[], Optional[tuple]]] = None
        self.busy_time = 0.0
        self.tasks_executed = 0

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def stalled(self) -> bool:
        return self._stalled

    def stall(self) -> None:
        """Freeze the CPU (GC-pause-style): the in-flight task finishes,
        then nothing runs until :meth:`resume`.  Queued work is kept."""
        self._stalled = True

    def resume(self) -> None:
        """End a stall and pull the next piece of work."""
        if not self._stalled:
            return
        self._stalled = False
        if not self._busy:
            self._start_next()

    def clear(self) -> None:
        """Drop all queued work and any stall (fail-stop: volatile state
        is lost).  An in-flight task's completion event cannot be
        cancelled; its callback is expected to no-op once its owner is
        dead, after which the CPU goes idle."""
        self._queue.clear()
        self._stalled = False

    def submit(self, cost: float, fn: Callable[..., None], *args: object) -> None:
        """Queue ``fn(*args)`` to run for ``cost`` seconds of CPU time.

        Passing arguments positionally (instead of closing over them)
        keeps the per-task cost to one tuple — no closure allocation on
        the per-frame hot path.
        """
        self._queue.append((cost, fn, args))
        if not self._busy:
            self._start_next()

    def kick(self) -> None:
        """Wake the CPU; if idle it will consult the idle hook."""
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if self._stalled:
            self._busy = False
            return
        task = None
        if self._queue:
            task = self._queue.popleft()
        elif self.idle_hook is not None:
            task = self.idle_hook()
        if task is None:
            self._busy = False
            return
        cost, fn, args = task
        if cost < 0:
            raise ValueError(f"negative CPU cost {cost}")
        self._busy = True
        self.busy_time += cost
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now + cost, seq, self._finish, (fn, args)))

    def _finish(self, fn: Callable[..., None], args: tuple) -> None:
        # Hot path: one _finish per CPU task.  The dispatch of the next
        # task is inlined (rather than calling _start_next) and the event
        # is pushed straight onto the simulator heap, skipping the
        # Simulator.post call frame.  Must stay semantically identical to
        # _start_next or seeded traces change.
        self.tasks_executed += 1
        fn(*args)
        if self._stalled:
            self._busy = False
            return
        queue = self._queue
        if queue:
            task = queue.popleft()
        else:
            hook = self.idle_hook
            task = hook() if hook is not None else None
            if task is None:
                self._busy = False
                return
        cost, next_fn, args = task
        if cost < 0:
            raise ValueError(f"negative CPU cost {cost}")
        self.busy_time += cost
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now + cost, seq, self._finish, (next_fn, args)))


class SimHost:
    """One server in the simulated testbed."""

    def __init__(
        self,
        host_id: int,
        sim: Simulator,
        params: NetworkParams,
        on_wire: Callable[[Frame], None],
        loss_model: Optional[LossModel] = None,
    ) -> None:
        self.host_id = host_id
        self.sim = sim
        self.params = params
        self.nic = Link(sim, params, on_wire, NIC_QUEUE_BYTES)
        self.cpu = Cpu(sim)
        self.token_socket = SocketBuffer(params.socket_buffer_bytes)
        self.data_socket = SocketBuffer(params.socket_buffer_bytes)
        self.loss_model = loss_model or NoLoss()
        #: Hot-path flag: skip the per-frame ``should_drop`` call entirely
        #: when no loss model is configured.
        self._lossless = loss_model is None or isinstance(self.loss_model, NoLoss)
        self.frames_lost_to_model = 0
        self.frames_intercepted = 0
        self.crashed = False
        #: Receive interceptors: callables ``fn(frame) -> bool`` consulted
        #: before the loss model; any True drops the frame.  The fault
        #: injector installs these for loss bursts scoped to one host.
        self._interceptors: List[Callable[[Frame], bool]] = []

    def add_interceptor(self, fn: Callable[[Frame], bool]) -> None:
        """Install a receive-side drop interceptor (see ``_interceptors``)."""
        self._interceptors.append(fn)

    def remove_interceptor(self, fn: Callable[[Frame], bool]) -> None:
        """Remove a previously installed interceptor (no-op if absent)."""
        if fn in self._interceptors:
            self._interceptors.remove(fn)

    def receive(self, frame: Frame) -> None:
        """A frame has fully arrived from the switch output port."""
        if self.crashed:
            return
        if self._interceptors:
            for fn in list(self._interceptors):
                if fn(frame):
                    self.frames_intercepted += 1
                    return
        # Paper §IV-A4: each daemon is instrumented to randomly drop a
        # percentage of the *data* messages it receives; token loss is out
        # of scope for the normal-case protocol (handled by membership).
        if frame.kind is _DATA:
            if not self._lossless and self.loss_model.should_drop(self.host_id, frame):
                self.frames_lost_to_model += 1
                return
            socket = self.data_socket
        else:
            socket = self.token_socket
        # SocketBuffer.push inlined: one call per received frame saved.
        queued = socket._queued_bytes + frame.size
        if queued > socket._capacity:
            socket.frames_dropped += 1
            return
        socket._frames.append(frame)
        socket._queued_bytes = queued
        socket.frames_received += 1
        if queued > socket.peak_queue_bytes:
            socket.peak_queue_bytes = queued
        cpu = self.cpu
        if not cpu._busy:
            cpu._start_next()

    def multicast_datagram(self, payload: object, size: int) -> None:
        """Multicast one data-port UDP datagram of ``size`` wire bytes,
        fragmented at the MTU like the kernel would (paper §IV-A3)."""
        send = self.nic.send
        for frame in fragment_datagram(
            self.host_id, None, _DATA, size, payload, self.params.mtu
        ):
            send(frame)

    def crash(self) -> None:
        """Stop receiving and processing (fail-stop).

        All volatile state dies with the process: queued CPU work, any
        GC-stall, and the kernel socket buffers.  Leaving any of it
        behind lets a later :meth:`recover` of the same host resurrect
        work belonging to the dead incarnation (a crashed-while-paused
        process would resume executing after restart, violating
        fail-stop)."""
        self.crashed = True
        self.cpu.clear()
        self.token_socket.clear()
        self.data_socket.clear()

    def recover(self) -> None:
        self.crashed = False
        # A restarted process starts with a fresh, unstalled CPU.
        self.cpu.resume()

    def pause(self) -> None:
        """Stall the CPU without dropping frames (GC-stall-style slowdown).

        Arriving frames keep accumulating in the kernel socket buffers,
        exactly as for a live-but-unscheduled process.
        """
        self.cpu.stall()

    def unpause(self) -> None:
        self.cpu.resume()

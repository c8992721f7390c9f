"""Bounded per-client send queues: backpressure for daemon fan-out.

A daemon fan-outs every ordered delivery to its connected clients.  A
naive ``writer.write()`` loop makes the daemon's memory hostage to its
slowest client: asyncio buffers unboundedly inside the transport, so a
client that stops reading grows the daemon's heap without limit.  Real
Spread flow-blocks or disconnects slow clients instead; this module
implements that policy.

Each client connection gets a :class:`ClientSendQueue`.  Frames are
admitted against a byte-bounded window (the shared
:class:`~repro.core.transport_core.ByteWindow`) and written a *batch* at
a time: the daemon queues what one pass of its node delivers to a client
and then calls :meth:`~ClientSendQueue.flush`, so a client costs one
``write`` per pass however many messages the pass ordered.  While the
socket takes everything it is given, that write goes straight through,
in the pass that produced it.  Bytes the socket did not take stay
counted against the window, and until it has taken them new frames only
queue (a drain task, alive just for that long, writes them on).  A
client that falls further behind than the window allows is
*disconnected*, not buffered — the bytes a daemon holds for its clients
stay within ``capacity_bytes × clients`` no matter how slow any reader
is.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, List, Optional

from repro.core.transport_core import ByteWindow

if TYPE_CHECKING:
    from repro.runtime.ipc import FrameProtocol

#: Default per-client window: generous for loopback benches, small
#: enough that a stalled client is cut off long before it matters.
DEFAULT_CLIENT_WINDOW_BYTES = 1 << 20


class ClientSendQueue:
    """One client's outbound frames: byte-bounded, written once per batch.

    ``send`` and ``flush`` are synchronous (callable from delivery
    callbacks).  ``unflushed`` is a list the owner shares between its
    queues: a queue adds itself when it accepts the first frame since
    its last flush, so the owner flushes exactly the clients a batch
    touched (:func:`flush_all`).  Overflow is fail-fast: the client is
    marked slow and its connection torn down.

    ``writer`` is an ``asyncio.StreamWriter`` or anything with the part
    of its surface used here — a daemon passes its client connection,
    a :class:`~repro.runtime.ipc.FrameProtocol`.
    """

    def __init__(
        self,
        writer: "asyncio.StreamWriter | FrameProtocol",
        capacity_bytes: int = DEFAULT_CLIENT_WINDOW_BYTES,
        unflushed: Optional[List["ClientSendQueue"]] = None,
    ) -> None:
        self.writer = writer
        self.window = ByteWindow(capacity_bytes)
        self._frames: List[bytes] = []
        self._unflushed = unflushed
        #: Bytes of the last write the socket has not taken yet; they
        #: stay reserved in the window until it has.
        self._unsent = 0
        #: Lives only while ``_unsent`` is non-zero.
        self._drainer: Optional[asyncio.Task] = None
        self._closing = False
        #: True once this client was dropped for falling behind.
        self.dropped_slow = False
        #: ``write`` calls made on the socket so far.
        self.writes = 0

    @property
    def closing(self) -> bool:
        return self._closing

    @property
    def pending_frames(self) -> List[bytes]:
        """Accepted-but-unwritten frames, oldest first (a snapshot)."""
        return list(self._frames)

    def send(self, frame: bytes) -> bool:
        """Queue ``frame`` — one frame, or a chunk of whole frames sent
        as one; False if the client is closing or too slow.

        Overflow disconnects the client (fail-fast): delivering a
        truncated stream silently would violate the ordered-delivery
        contract, so the client is told nothing and must reconnect.
        """
        if self._closing or self.writer.is_closing():
            return False
        if not self.window.try_reserve(len(frame)):
            self.dropped_slow = True
            self.abort()
            return False
        frames = self._frames
        if not frames and self._unflushed is not None:
            self._unflushed.append(self)
        frames.append(frame)
        return True

    def flush(self) -> None:
        """Write what is queued in one ``write`` — unless the socket is
        backed up, in which case the drain task will."""
        if self._frames and self._drainer is None and not self._closing:
            self._write()

    def _write(self) -> None:
        frames = self._frames
        data = frames[0] if len(frames) == 1 else b"".join(frames)
        frames.clear()
        writer = self.writer
        writer.write(data)
        self.writes += 1
        # The transport tries the socket at once; what it could not send
        # is the backlog.  (Nothing else writes to this transport, and it
        # was empty: no drainer was running.)
        unsent = writer.transport.get_write_buffer_size()
        self.window.release(len(data) - unsent)
        if unsent:
            self._unsent = unsent
            # High-water mark 0: ``drain()`` then returns only once the
            # socket has taken every byte.
            writer.transport.set_write_buffer_limits(high=0)
            if self._drainer is None:
                self._drainer = asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        """Backed up: wait for the socket to take the backlog, write what
        queued up meanwhile, and repeat until a write goes straight
        through.  While this waits, arriving frames accumulate against
        the byte window — the bound that turns a stalled reader into a
        disconnect instead of heap growth."""
        try:
            while self._unsent:
                await self.writer.drain()
                self.window.release(self._unsent)
                self._unsent = 0
                if self._frames:
                    self._write()
        except (ConnectionResetError, BrokenPipeError, OSError):
            self._discard()
        finally:
            self._drainer = None

    def _discard(self) -> None:
        self._closing = True
        self._frames.clear()
        self._unsent = 0
        self.window.reset()

    def abort(self) -> None:
        """Hard teardown: drop queued frames and kill the transport now.

        Used for slow-client drops — a graceful close would await
        ``drain()`` on a transport the stalled peer never reads, which
        blocks forever.  Aborting the transport wakes any in-flight
        ``drain()``, which then finds nothing left to write.
        """
        self._discard()
        transport = self.writer.transport
        if transport is not None:
            transport.abort()

    async def drain_and_close(self) -> None:
        """Graceful drain: flush queued frames, then close the writer."""
        if not self._closing:
            self._closing = True
            if self._frames and self._drainer is None:
                self._write()
        writer = self.writer
        try:
            if self._drainer is not None:
                await self._drainer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def aclose(self) -> None:
        """Immediate teardown: drop queued frames and close the writer."""
        self.abort()
        await self.drain_and_close()


def flush_all(unflushed: List[ClientSendQueue]) -> None:
    """Flush, once each, the queues a batch of deliveries touched."""
    for queue in unflushed:
        queue.flush()
    unflushed.clear()

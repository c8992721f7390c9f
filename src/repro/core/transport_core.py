"""Sans-io transport core shared by the simulator and the real runtime.

Both "implementations" of the protocol — the deterministic simulator
driver (:class:`repro.sim.driver.ProtocolHost`) and the asyncio/UDP
runtime node (:class:`repro.runtime.node.RingNode`) — move the same
traffic: runs of new multicasts coalesced into one datagram
(``messages_per_datagram``), retransmissions travelling alone, and
receive/send windows accounted in bytes; both queue their frames in
``collections.deque``.  This module is the single home for that
machinery, with no I/O and no clock: the sim prices the plans in
simulated CPU seconds, the runtime encodes them onto real sockets, and
neither keeps a private copy of the policy.

Contents:

* :class:`CoalescingAccumulator` — the run-grouping policy for
  ``MulticastData`` effects ("runs of consecutive new sends pack into
  one datagram, flushed at the first effect of any other kind so the
  token never overtakes pre-token sends"), driven by the one effect
  interpreter, :class:`repro.core.executor.EffectExecutor`.
* :func:`batch_wire_size` — the exact wire arithmetic of a coalesced
  frame (``encode_data_batch``'s format), used by the sim cost model
  and by anyone sizing real datagrams.
* :func:`split_run` — the byte rule: a run cut, greedily and in order,
  into sub-runs that each fit one datagram of a given size.  The
  runtime's limit on a datagram is bytes; the count above is the
  simulator's model parameter.
* :func:`encode_run` / :func:`decode_data_port` — the runtime codec for
  a coalesced run and the *port-aware* decode of the data port.  On the
  wire, core type 3 (``TYPE_DATA_BATCH``) collides with membership type
  3 (``TYPE_JOIN``); the collision is resolved by port class — batches
  only ever travel on the data port, joins and all other control
  messages ride the token port — so data-port decoding must use this
  function, never :func:`repro.membership.codec.decode_any`.
* :class:`ByteWindow` — bounded-byte admission accounting, the base of
  the simulator's kernel :class:`~repro.net.host.SocketBuffer` and of
  the runtime daemons' per-client send windows (backpressure).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.codec import (
    BATCH_FRAME_OVERHEAD,
    BATCH_ITEM_OVERHEAD,
    DATA_HEADER_BYTES,
    MAGIC,
    TYPE_DATA,
    TYPE_DATA_BATCH,
    decode_data_batch,
    encode_data,
    encode_data_batch,
)
from repro.core.codec import _decode_data  # one parse path for both consumers
from repro.core.messages import DataMessage
from repro.util.errors import CodecError


# ----------------------------------------------------------------------
# Coalescing (messages_per_datagram)
# ----------------------------------------------------------------------


def batch_wire_size(messages: Sequence[DataMessage], header_bytes: int) -> int:
    """Wire size of a coalesced frame carrying ``messages``.

    Mirrors :func:`repro.core.codec.encode_data_batch` exactly: one
    batch header, then per message a length prefix plus a complete
    single-message encoding (``header_bytes`` of header + the payload).
    The sim prices coalesced sends with this, so the simulated per-byte
    cost matches what the runtime actually puts on the wire.
    """
    size = BATCH_FRAME_OVERHEAD
    for message in messages:
        size += BATCH_ITEM_OVERHEAD + header_bytes + int(message.payload_size)
    return size


class CoalescingAccumulator:
    """Groups runs of consecutive coalescible multicasts.

    The policy (paper §III-C): with ``messages_per_datagram > 1``, runs
    of consecutive *new* multicasts pack into one datagram of up to that
    many messages.  Retransmissions never coalesce — they are sent alone
    without touching the accumulator.  A run ends at the first effect of
    any other kind: the run is drained (:meth:`take`) before that effect
    so datagrams keep effect order — the token must not overtake
    pre-token sends.

    Driven only by :class:`repro.core.executor.EffectExecutor`, on every
    substrate.  ``group`` is public: the executor's per-effect loop
    tests it directly (``acc.group is not None``); :meth:`push` and
    :meth:`take` are the only mutators.
    """

    __slots__ = ("mpd", "group")

    def __init__(self, messages_per_datagram: int) -> None:
        self.mpd = messages_per_datagram
        self.group: Optional[List[DataMessage]] = None

    def push(self, message: DataMessage) -> Optional[List[DataMessage]]:
        """Add one new multicast to the current run.

        Returns the completed run when it reaches
        ``messages_per_datagram``, else ``None`` (message retained).
        """
        group = self.group
        if group is None:
            group = [message]
            if len(group) >= self.mpd:
                return group
            self.group = group
            return None
        group.append(message)
        if len(group) >= self.mpd:
            self.group = None
            return group
        return None

    def take(self) -> Optional[List[DataMessage]]:
        """Drain the partial run (run boundary), or ``None`` if empty."""
        group = self.group
        self.group = None
        return group


def split_run(
    messages: Sequence[DataMessage], budget: int
) -> List[Sequence[DataMessage]]:
    """Cut one run into sub-runs that each encode to ``budget`` bytes or less.

    Greedy and in order: a message joins the current sub-run while the
    coalesced frame (:func:`batch_wire_size`'s arithmetic over the real
    data header) still fits, otherwise it starts the next one — so the
    sub-runs concatenate to ``messages`` and no two neighbours would
    have fitted together.  A sub-run of one is what :func:`encode_run`
    sends as a plain single-message datagram; a message that alone
    exceeds the budget is such a sub-run (it travels alone, as large as
    it is).
    """
    item_overhead = BATCH_ITEM_OVERHEAD + DATA_HEADER_BYTES
    sub_runs: List[Sequence[DataMessage]] = []
    start = 0
    size = BATCH_FRAME_OVERHEAD
    for index, message in enumerate(messages):
        item = item_overhead + len(message.payload)
        size += item
        if size > budget and index > start:
            sub_runs.append(messages[start:index])
            start = index
            size = BATCH_FRAME_OVERHEAD + item
    sub_runs.append(messages[start:] if start else messages)
    return sub_runs


def encode_run(messages: Sequence[DataMessage]) -> bytes:
    """Encode one coalesced run for the wire.

    A run of one gains nothing from the batch frame, so it is encoded
    as a plain single-message datagram — byte-identical to the
    uncoalesced path — exactly as the sim prices it.
    """
    if len(messages) == 1:
        return encode_data(messages[0])
    return encode_data_batch(messages)


def decode_data_port(data: bytes) -> Union[DataMessage, List[DataMessage]]:
    """Decode one datagram received on the *data* port.

    The data port carries only single data messages and coalesced
    batches; tokens and every membership control message ride the token
    port.  That port split is what makes wire type 3 unambiguous: on
    the data port it is ``TYPE_DATA_BATCH``, on the token port it is
    ``TYPE_JOIN`` (decoded by ``decode_any``).  Anything else here is a
    codec error, counted by the caller like any malformed datagram.
    """
    if len(data) < 2:
        raise CodecError(f"datagram too short: {len(data)} bytes")
    if data[0] != MAGIC:
        raise CodecError(f"bad magic byte {data[0]:#x}")
    msg_type = data[1]
    if msg_type == TYPE_DATA:
        return _decode_data(data)
    if msg_type == TYPE_DATA_BATCH:
        return decode_data_batch(data)
    raise CodecError(f"unexpected type {msg_type} on the data port")


# ----------------------------------------------------------------------
# Byte-window accounting
# ----------------------------------------------------------------------


class ByteWindow:
    """Bounded-byte admission accounting for one queue.

    The policy shared by the simulator's kernel
    :class:`~repro.net.host.SocketBuffer` (which subclasses this and
    inlines the arithmetic on its hot receive path) and the runtime
    daemons' per-client send windows: admission is all-or-nothing
    against a byte capacity, drops are counted rather than buffered,
    and the peak committed depth is recorded for observability.

    Subclass hot paths may inline ``_queued_bytes``/``_capacity``
    updates directly; any inline must mirror :meth:`try_reserve` /
    :meth:`release` exactly or the copies drift.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self._capacity = capacity_bytes
        self._queued_bytes = 0
        self.frames_received = 0
        self.frames_dropped = 0
        self.peak_queue_bytes = 0

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def try_reserve(self, size: int) -> bool:
        """Admit ``size`` bytes; False (and a drop count) on overflow."""
        queued = self._queued_bytes + size
        if queued > self._capacity:
            self.frames_dropped += 1
            return False
        self._queued_bytes = queued
        self.frames_received += 1
        if queued > self.peak_queue_bytes:
            self.peak_queue_bytes = queued
        return True

    def release(self, size: int) -> None:
        """Return ``size`` admitted bytes to the window."""
        self._queued_bytes -= size

    def reset(self) -> None:
        """Drop all committed bytes (volatile-state clear)."""
        self._queued_bytes = 0

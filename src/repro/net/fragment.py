"""UDP datagram fragmentation and reassembly.

Paper §IV-A3 evaluates 8850-byte payloads carried in UDP datagrams of up
to 9000 bytes: the kernel fragments them into MTU-sized IP fragments, and
"losing a single frame causes the whole datagram to be lost".  This module
reproduces exactly that: a datagram larger than the MTU becomes several
frames sharing a ``(datagram_id, index, total)`` tag, and the receiver's
:class:`Reassembler` only surfaces the datagram once every fragment has
arrived — if any fragment is dropped the datagram never completes (a
garbage-collection hook expires stale partial datagrams).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.transport_core import batch_wire_size
from repro.net.packet import Frame, PortKind

_datagram_ids = itertools.count(1)


class CoalescedDatagram:
    """Several data messages riding one simulated UDP datagram.

    ``payload_size`` is the whole frame's wire size (batch header, per-item
    length prefixes, per-item protocol headers, payloads) *minus* one
    protocol data header, so every existing cost expression of the shape
    ``header_bytes + payload_size`` prices the real datagram bytes without
    a coalescing special case.  Like a real multi-message frame, losing
    any fragment of the datagram loses every message in it.
    """

    __slots__ = ("messages", "payload_size")

    def __init__(self, messages: tuple, payload_size: int) -> None:
        self.messages = messages
        self.payload_size = payload_size

    def __repr__(self) -> str:
        return (
            f"CoalescedDatagram({len(self.messages)} messages, "
            f"payload_size={self.payload_size})"
        )


def pack_run(run: Sequence[Any], header_bytes: int) -> Tuple[Any, int]:
    """``(payload, wire size)`` of the datagram carrying one run of
    data messages — the single sizing rule of every simulated host.

    A run of one gains nothing from the batch frame: it travels as the
    plain message, ``header_bytes + payload_size`` on the wire.  Longer
    runs ride a :class:`CoalescedDatagram` sized by
    :func:`~repro.core.transport_core.batch_wire_size`, so every wire
    byte (batch framing included) is priced like the real
    ``encode_data_batch`` format.
    """
    if len(run) == 1:
        message = run[0]
        return message, header_bytes + int(message.payload_size)
    size = batch_wire_size(run, header_bytes)
    return CoalescedDatagram(tuple(run), size - header_bytes), size


def fragment_datagram(
    src: int,
    dst: Optional[int],
    kind: PortKind,
    size: int,
    payload: Any,
    mtu: int,
) -> List[Frame]:
    """Split one UDP datagram into MTU-sized frames.

    Returns a single unfragmented frame when ``size`` fits in the MTU.
    """
    if size <= mtu:
        return [Frame(src, dst, kind, size, payload)]
    datagram_id = next(_datagram_ids)
    total = -(-size // mtu)  # ceil division
    frames = []
    remaining = size
    for index in range(total):
        frag_size = min(mtu, remaining)
        remaining -= frag_size
        frames.append(
            Frame(src, dst, kind, frag_size, payload, (datagram_id, index, total))
        )
    return frames


class Reassembler:
    """Per-host IP fragment reassembly buffer.

    Two garbage-collection policies bound the partial-datagram state:

    * a count cap (``max_partial``), always on, evicting the stalest
      partial when the buffer overflows, and
    * an age cap (``max_age`` seconds read off ``clock``), expiring any
      partial whose *first* fragment arrived more than ``max_age`` ago —
      like a kernel's IP reassembly timer.

    The age check runs lazily on the fragmented-accept path (never from
    a scheduled event, so enabling it perturbs no event schedule).  It
    is the defence against partials no overflow will ever evict on a
    quiet link: a datagram orphaned by a dropped fragment, or — the
    subtle one — a *duplicated* final fragment arriving after its
    datagram completed, which re-creates the partial entry with every
    other fragment already consumed, so it can never complete.
    """

    def __init__(
        self,
        max_partial: int = 1024,
        max_age: Optional[float] = None,
        clock: Optional[Any] = None,
    ) -> None:
        #: key -> bitmask of fragment indices seen so far.  An int bitmask
        #: gives the per-index bookkeeping real IP reassembly keeps
        #: (duplicates are harmless: re-setting a bit is a no-op) without
        #: allocating a set per partial datagram on the hot path.
        self._partial: Dict[tuple, int] = {}
        self._max_partial = max_partial
        if max_age is not None and clock is None:
            raise ValueError("max_age needs a clock")
        self._max_age = max_age
        self._clock = clock
        #: key -> time the partial's first fragment arrived.  Keys are
        #: inserted once per partial lifetime and removed on completion
        #: or expiry, so dict order is oldest-first and the expiry scan
        #: stops at the first fresh entry.
        self._first_seen: Dict[tuple, float] = {}
        self.datagrams_completed = 0
        self.datagrams_expired = 0

    def accept(self, frame: Frame) -> Optional[Any]:
        """Feed one frame; returns the datagram payload when complete.

        Unfragmented frames complete immediately.  The key includes the
        source host so fragments from different senders never mix.
        """
        fragment = frame.fragment
        if fragment is None:
            self.datagrams_completed += 1
            return frame.payload
        max_age = self._max_age
        if max_age is not None:
            now = self._clock()
            self._expire_stale(now)
        partial = self._partial
        key = (frame.src, fragment[0])
        seen = partial.get(key, 0) | (1 << fragment[1])
        if seen == (1 << fragment[2]) - 1:
            if key in partial:
                del partial[key]
                self._first_seen.pop(key, None)
            self.datagrams_completed += 1
            return frame.payload
        partial[key] = seen
        if max_age is not None and key not in self._first_seen:
            # Expiry ran first, so a late fragment of an expired
            # datagram starts a fresh partial with a fresh timer.
            self._first_seen[key] = now
        if len(partial) > self._max_partial:
            self._expire_oldest()
        return None

    def _expire_stale(self, now: float) -> None:
        """Drop every partial older than ``max_age``, oldest first."""
        first_seen = self._first_seen
        cutoff = now - self._max_age
        while first_seen:
            key = next(iter(first_seen))
            if first_seen[key] > cutoff:
                break
            del first_seen[key]
            self._partial.pop(key, None)
            self.datagrams_expired += 1

    def _expire_oldest(self) -> None:
        # Datagram ids increase monotonically; the smallest id is the
        # stalest partial datagram, which a dropped fragment has orphaned.
        oldest = min(self._partial, key=lambda key: key[1])
        del self._partial[oldest]
        self._first_seen.pop(oldest, None)
        self.datagrams_expired += 1

"""On-wire frame abstraction for the simulated network.

The simulator does not serialize protocol messages to bytes; a
:class:`Frame` carries the live message object plus the *size* it would
occupy on the wire, which is all the timing model needs.  (The real
asyncio runtime in :mod:`repro.runtime` uses the binary codecs in
:mod:`repro.core.codec` instead.)

Frames are the most-allocated objects in a benchmark run (one per
fragment per destination), so the class is a hand-written ``__slots__``
class backed by a bounded free list: :meth:`Frame.acquire` reuses a
recycled instance when one is available, and the switch/driver hot paths
call :meth:`Frame.recycle` on frames they know are dead (multicast
originals after fan-out, per-destination clones after reassembly).
Recycling is purely an allocation optimization — a frame that is never
recycled is simply collected by the GC.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, List, Optional


class PortKind(Enum):
    """Which UDP port class a frame travels on.

    The implementations in the paper send tokens and data on different ports
    and receive them on different sockets (§III-E), which is what lets a
    participant prioritize one type over the other.  Membership control
    messages (join / commit token) travel on the token port class.
    """

    DATA = "data"
    TOKEN = "token"


_frame_ids = itertools.count(1)

#: Bounded free list of recycled frames (module-level, like the id counter).
_pool: List["Frame"] = []
_POOL_CAP = 4096


class Frame:
    """One network frame (one UDP datagram up to the MTU, or one fragment).

    Attributes:
        src: sending host id.
        dst: destination host id, or ``None`` for multicast to every other
            attached host (IP-multicast on the LAN).
        kind: token-port or data-port traffic.
        size: total on-wire bytes, excluding per-frame Ethernet overhead
            (the :class:`~repro.net.params.NetworkParams` adds that).
        payload: the live protocol message object.
        fragment: optional ``(datagram_id, index, total)`` when this frame
            is one IP fragment of a larger UDP datagram.
    """

    __slots__ = ("src", "dst", "kind", "size", "payload", "fragment", "frame_id")

    def __init__(
        self,
        src: int,
        dst: Optional[int],
        kind: PortKind,
        size: int,
        payload: Any,
        fragment: Optional[tuple] = None,
        frame_id: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.size = size
        self.payload = payload
        self.fragment = fragment
        self.frame_id = frame_id if frame_id is not None else next(_frame_ids)

    def __repr__(self) -> str:
        return (
            f"Frame(src={self.src}, dst={self.dst}, kind={self.kind}, "
            f"size={self.size}, payload={self.payload!r}, "
            f"fragment={self.fragment}, frame_id={self.frame_id})"
        )

    # ------------------------------------------------------------------
    # Pooling
    # ------------------------------------------------------------------

    @classmethod
    def acquire(
        cls,
        src: int,
        dst: Optional[int],
        kind: PortKind,
        size: int,
        payload: Any,
        fragment: Optional[tuple] = None,
    ) -> "Frame":
        """Like the constructor, but reuses a recycled frame when available.

        A fresh ``frame_id`` is always assigned.
        """
        if _pool:
            frame = _pool.pop()
            frame.src = src
            frame.dst = dst
            frame.kind = kind
            frame.size = size
            frame.payload = payload
            frame.fragment = fragment
            frame.frame_id = next(_frame_ids)
            return frame
        return cls(src, dst, kind, size, payload, fragment)

    def recycle(self) -> None:
        """Return this frame to the free list.

        Only call when no other component can still reference the frame
        (the caller owns it).  Payload references are dropped so recycled
        frames never pin protocol messages alive.
        """
        if len(_pool) < _POOL_CAP:
            self.payload = None
            self.fragment = None
            _pool.append(self)

    # ------------------------------------------------------------------

    def clone_for(self, dst: int) -> "Frame":
        """A per-destination copy of a multicast frame (same frame_id)."""
        if _pool:
            frame = _pool.pop()
            frame.src = self.src
            frame.dst = dst
            frame.kind = self.kind
            frame.size = self.size
            frame.payload = self.payload
            frame.fragment = self.fragment
            frame.frame_id = self.frame_id
            return frame
        return Frame(
            src=self.src,
            dst=dst,
            kind=self.kind,
            size=self.size,
            payload=self.payload,
            fragment=self.fragment,
            frame_id=self.frame_id,
        )

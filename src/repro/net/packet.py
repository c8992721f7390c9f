"""On-wire frame abstraction for the simulated network.

The simulator does not serialize protocol messages to bytes; a
:class:`Frame` carries the live message object plus the *size* it would
occupy on the wire, which is all the timing model needs.  (The real
asyncio runtime in :mod:`repro.runtime` uses the binary codecs in
:mod:`repro.core.codec` instead.)

A frame is one immutable object per datagram fragment: the switch hands
the frame it received to every output port of a multicast, so every
receiver's socket holds the same object, and nothing outside this
module assigns a frame's attributes after construction.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional


class PortKind(Enum):
    """Which UDP port class a frame travels on.

    The implementations in the paper send tokens and data on different ports
    and receive them on different sockets (§III-E), which is what lets a
    participant prioritize one type over the other.  Membership control
    messages (join / commit token) travel on the token port class.
    """

    DATA = "data"
    TOKEN = "token"


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

    __slots__ = ("src", "dst", "kind", "size", "payload", "fragment")

    def __init__(
        self,
        src: int,
        dst: Optional[int],
        kind: PortKind,
        size: int,
        payload: Any,
        fragment: Optional[tuple] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.size = size
        self.payload = payload
        self.fragment = fragment

    def __repr__(self) -> str:
        return (
            f"Frame(src={self.src}, dst={self.dst}, kind={self.kind}, "
            f"size={self.size}, payload={self.payload!r}, "
            f"fragment={self.fragment})"
        )

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
        """The constructor under its old name, kept for callers outside
        the package that still use it."""
        return cls(src, dst, kind, size, payload, fragment)

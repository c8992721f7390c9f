"""Data messages and delivery services.

A data message (paper §III-C) carries: ``seq`` — its position in the total
order, stamped by the sender at multicast time using the token; ``pid`` —
the initiating participant; ``round`` — the token round in which it was
initiated; and the opaque payload.  We add the ``post_token`` bit used by
the second priority method of §III-D (it tells receivers the sender had
already released the token when this message went out) and the delivery
service requested by the application.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional

from repro.util.errors import CodecError


class DeliveryService(IntEnum):
    """Delivery service levels (Extended Virtual Synchrony, paper §II).

    ``RELIABLE``/``FIFO``/``CAUSAL`` share the delivery path of ``AGREED``
    (the paper notes their latency is similar to Agreed delivery): a message
    is delivered once every message preceding it in the total order has been
    delivered.  ``SAFE`` additionally waits until the token's ``aru``
    proves every participant has received the message (stability).
    """

    RELIABLE = 1
    FIFO = 2
    CAUSAL = 3
    AGREED = 4
    SAFE = 5

    @property
    def requires_stability(self) -> bool:
        return self is DeliveryService.SAFE


class _ServiceTable(dict):
    def __missing__(self, code: int) -> "DeliveryService":
        raise CodecError(f"unknown delivery service {code}")


#: The service a wire byte names: ``SERVICE_FROM_WIRE[code]``.  Every
#: decoder reads the byte through this table, so a byte that names no
#: service is a :class:`CodecError` wherever it arrives (a hit is one
#: dict lookup; ``DeliveryService(code)`` is an enum call per message
#: and raises ``ValueError``, which no receive path catches).
SERVICE_FROM_WIRE = _ServiceTable((int(service), service) for service in DeliveryService)


class DataMessage:
    """One totally ordered multicast message.

    ``timestamp`` is not part of the wire format the protocol depends on; it
    records the moment the application handed the payload to the sender and
    is used only for latency measurement (like the client timestamping in
    the paper's benchmarks).

    A hand-written ``__slots__`` class (not a dataclass): one instance is
    allocated per multicast, making this one of the hottest allocations in
    a benchmark run.  Python 3.9 lacks ``dataclass(slots=True)``, hence
    the explicit form; constructor semantics (including the
    ``payload_size`` default of ``len(payload)``) match the dataclass it
    replaced.
    """

    __slots__ = (
        "seq",
        "pid",
        "round",
        "service",
        "payload",
        "post_token",
        "payload_size",
        "timestamp",
        "ring_id",
    )

    def __init__(
        self,
        seq: int,
        pid: int,
        round: int,
        service: DeliveryService,
        payload: bytes = b"",
        post_token: bool = False,
        payload_size: Optional[int] = None,
        timestamp: Optional[float] = None,
        ring_id: int = 1,
    ) -> None:
        self.seq = seq
        self.pid = pid
        self.round = round
        self.service = service
        self.payload = payload
        self.post_token = post_token
        self.payload_size = payload_size if payload_size is not None else len(payload)
        self.timestamp = timestamp
        self.ring_id = ring_id

    def __repr__(self) -> str:
        return (
            f"DataMessage(seq={self.seq!r}, pid={self.pid!r}, "
            f"round={self.round!r}, service={self.service!r}, "
            f"payload={self.payload!r}, post_token={self.post_token!r}, "
            f"payload_size={self.payload_size!r}, timestamp={self.timestamp!r}, "
            f"ring_id={self.ring_id!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DataMessage:
            return NotImplemented
        return (
            self.seq == other.seq
            and self.pid == other.pid
            and self.round == other.round
            and self.service == other.service
            and self.payload == other.payload
            and self.post_token == other.post_token
            and self.payload_size == other.payload_size
            and self.timestamp == other.timestamp
            and self.ring_id == other.ring_id
        )

    __hash__ = None  # mutable, like the dataclass it replaced

    def wire_size(self, header_bytes: int) -> int:
        """Bytes this message occupies in a UDP datagram, given the
        implementation's protocol header size."""
        return header_bytes + int(self.payload_size)

"""Client-daemon IPC framing and endpoint addressing.

Daemons and their local clients talk over a unix stream socket using
length-prefixed frames: ``!BI`` (opcode, body length) followed by the
body.  Mirrors Spread's IPC-socket client communication (paper §III-E).
Both ends parse with the sans-io :class:`FrameDecoder`, which yields
every complete frame a read returned — a burst of deliveries costs its
receiver one wakeup, not two awaits per frame.

Where a client connects is described by an :data:`Endpoint` — either a
:class:`UnixEndpoint` (co-located client, the paper's recommended LAN
setup) or a :class:`TcpEndpoint` (remote client).  Client constructors
take one ``endpoint`` argument, interpreted by :func:`parse_endpoint`.
"""

from __future__ import annotations

import asyncio
import struct
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple, Union

from repro.core.messages import DeliveryService
from repro.util.errors import CodecError


@dataclass(frozen=True)
class UnixEndpoint:
    """A daemon's local unix stream socket."""

    path: str

    def __post_init__(self) -> None:
        if not isinstance(self.path, str) or not self.path:
            raise ValueError(f"unix endpoint needs a non-empty path, got {self.path!r}")

    async def open(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.open_unix_connection(self.path)

    def __str__(self) -> str:
        return f"unix://{self.path}"


@dataclass(frozen=True)
class TcpEndpoint:
    """A daemon's TCP listener, for clients not co-located with it."""

    host: str
    port: int

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ValueError(f"tcp endpoint needs a non-empty host, got {self.host!r}")
        if (
            isinstance(self.port, bool)
            or not isinstance(self.port, int)
            or not 0 < self.port < 65536
        ):
            raise ValueError(f"tcp endpoint needs a port in 1..65535, got {self.port!r}")

    async def open(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.open_connection(self.host, self.port)

    def __str__(self) -> str:
        return f"tcp://{self.host}:{self.port}"


#: Where a client connects: a unix socket or a TCP listener.
Endpoint = Union[UnixEndpoint, TcpEndpoint]

#: Anything :func:`parse_endpoint` accepts.
EndpointSpec = Union[Endpoint, str, Tuple[str, int]]


def parse_endpoint(spec: EndpointSpec) -> Endpoint:
    """Interpret ``spec`` as an :data:`Endpoint`.

    Accepts an :data:`Endpoint` (returned unchanged), ``"unix://<path>"``,
    ``"tcp://<host>:<port>"``, a ``(host, port)`` tuple, or a bare path
    string (treated as a unix socket path).
    """
    if isinstance(spec, (UnixEndpoint, TcpEndpoint)):
        return spec
    if isinstance(spec, tuple):
        if len(spec) != 2:
            raise ValueError(f"endpoint tuple must be (host, port), got {spec!r}")
        host, port = spec
        return TcpEndpoint(host=host, port=port)
    if isinstance(spec, str):
        if spec.startswith("unix://"):
            return UnixEndpoint(path=spec[len("unix://") :])
        if spec.startswith("tcp://"):
            rest = spec[len("tcp://") :]
            host, sep, port = rest.rpartition(":")
            if not sep or not port.isdigit():
                raise ValueError(f"malformed tcp endpoint {spec!r}; want tcp://host:port")
            return TcpEndpoint(host=host, port=int(port))
        return UnixEndpoint(path=spec)
    raise ValueError(f"cannot interpret {spec!r} as an endpoint")


OP_SUBMIT = 1
OP_DELIVER = 2
OP_CONFIG = 3
OP_JOIN = 4
OP_LEAVE = 5
OP_GROUPCAST = 6
OP_GROUP_VIEW = 7
OP_HELLO = 8
OP_WELCOME = 9

_FRAME_HEADER = struct.Struct("!BI")
# deliver body prefix: sender, seq, service
_DELIVER_PREFIX = struct.Struct("!IQB")
# submit body prefix: service
_SUBMIT_PREFIX = struct.Struct("!B")

MAX_FRAME = 16 * 1024 * 1024


def pack_frame(opcode: int, body: bytes) -> bytes:
    return _FRAME_HEADER.pack(opcode, len(body)) + body


#: One decoded frame: ``(opcode, body)``.
Frame = Tuple[int, bytes]


class FrameDecoder:
    """Sans-io frame parser for one byte stream.

    :meth:`feed` takes whatever a read returned and gives back every
    frame it completed, in order; the bytes of an unfinished frame (down
    to a partial header) wait for the next call.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def partial(self) -> bytes:
        """The bytes of the frame still being received."""
        return bytes(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        buffer = self._buffer
        buffer += data
        frames: List[Frame] = []
        header_size = _FRAME_HEADER.size
        offset = 0
        with memoryview(buffer) as view:
            end = len(view)
            while end - offset >= header_size:
                opcode, length = _FRAME_HEADER.unpack_from(view, offset)
                if length > MAX_FRAME:
                    raise CodecError(f"frame too large: {length}")
                body = offset + header_size
                if body + length > end:
                    break
                offset = body + length
                frames.append((opcode, bytes(view[body:offset])))
        if offset:
            del buffer[:offset]
        return frames


class FrameReader:
    """The frames arriving on one connection, over a stream reader.

    :meth:`next` returns without suspending while frames of the last
    read remain; otherwise it awaits one read and decodes all of it.
    """

    #: Bytes asked of the stream per read (its buffer limit is 64 KiB).
    READ_SIZE = 1 << 16

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._decoder = FrameDecoder()
        self._ready: Deque[Frame] = deque()

    async def next(self) -> Frame:
        """The next frame; ``IncompleteReadError`` once the peer is gone."""
        ready = self._ready
        while not ready:
            data = await self._reader.read(self.READ_SIZE)
            if not data:
                raise asyncio.IncompleteReadError(self._decoder.partial, None)
            ready.extend(self._decoder.feed(data))
        return ready.popleft()


async def read_frame(reader: asyncio.StreamReader) -> Frame:
    """One frame straight off ``reader``, two awaits and no decoder state.

    Not used by the runtime (see :class:`FrameReader`); kept because the
    frozen ``benchmarks/e2e/micro.py`` times it.
    """
    header = await reader.readexactly(_FRAME_HEADER.size)
    opcode, length = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME:
        raise CodecError(f"frame too large: {length}")
    body = await reader.readexactly(length) if length else b""
    return opcode, body


def pack_submit(service: DeliveryService, payload: bytes) -> bytes:
    return pack_frame(OP_SUBMIT, _SUBMIT_PREFIX.pack(int(service)) + payload)


def unpack_submit(body: bytes) -> Tuple[DeliveryService, bytes]:
    (service,) = _SUBMIT_PREFIX.unpack_from(body)
    return DeliveryService(service), body[_SUBMIT_PREFIX.size :]


def pack_deliver(sender: int, seq: int, service: DeliveryService, payload: bytes) -> bytes:
    return pack_frame(OP_DELIVER, _DELIVER_PREFIX.pack(sender, seq, int(service)) + payload)


@dataclass(frozen=True)
class Delivery:
    """One message as seen by a receiving client."""

    sender: int
    seq: int
    service: DeliveryService
    payload: bytes


def unpack_deliver(body: bytes) -> Delivery:
    sender, seq, service = _DELIVER_PREFIX.unpack_from(body)
    return Delivery(
        sender=sender,
        seq=seq,
        service=DeliveryService(service),
        payload=body[_DELIVER_PREFIX.size :],
    )


def pack_config(members: List[int], transitional: bool) -> bytes:
    body = struct.pack(f"!BI{len(members)}I", 1 if transitional else 0, len(members), *members)
    return pack_frame(OP_CONFIG, body)


def unpack_config(body: bytes) -> Tuple[List[int], bool]:
    transitional, count = struct.unpack_from("!BI", body)
    members = list(struct.unpack_from(f"!{count}I", body, 5))
    return members, bool(transitional)


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("!H", len(raw)) + raw


def _unpack_str(body: bytes, offset: int) -> Tuple[str, int]:
    (length,) = struct.unpack_from("!H", body, offset)
    start = offset + 2
    return body[start : start + length].decode("utf-8"), start + length


def pack_group_op(opcode: int, group: str) -> bytes:
    return pack_frame(opcode, _pack_str(group))


def unpack_group_op(body: bytes) -> str:
    group, _ = _unpack_str(body, 0)
    return group


def pack_groupcast(groups: List[str], service: DeliveryService, payload: bytes) -> bytes:
    parts = [struct.pack("!BB", int(service), len(groups))]
    for group in groups:
        parts.append(_pack_str(group))
    parts.append(payload)
    return pack_frame(OP_GROUPCAST, b"".join(parts))


def unpack_groupcast(body: bytes) -> Tuple[List[str], DeliveryService, bytes]:
    service, count = struct.unpack_from("!BB", body)
    offset = 2
    groups = []
    for _ in range(count):
        group, offset = _unpack_str(body, offset)
        groups.append(group)
    return groups, DeliveryService(service), body[offset:]


def pack_hello(private_name: str) -> bytes:
    return pack_frame(OP_HELLO, _pack_str(private_name))


def unpack_hello(body: bytes) -> str:
    name, _ = _unpack_str(body, 0)
    return name


def pack_welcome(member_name: str) -> bytes:
    return pack_frame(OP_WELCOME, _pack_str(member_name))


def unpack_welcome(body: bytes) -> str:
    name, _ = _unpack_str(body, 0)
    return name


def pack_group_view(group: str, members: List[str]) -> bytes:
    parts = [_pack_str(group), struct.pack("!I", len(members))]
    for member in members:
        parts.append(_pack_str(member))
    return pack_frame(OP_GROUP_VIEW, b"".join(parts))


def unpack_group_view(body: bytes) -> Tuple[str, List[str]]:
    group, offset = _unpack_str(body, 0)
    (count,) = struct.unpack_from("!I", body, offset)
    offset += 4
    members = []
    for _ in range(count):
        member, offset = _unpack_str(body, offset)
        members.append(member)
    return group, members

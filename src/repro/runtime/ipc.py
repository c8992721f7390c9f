"""Client-daemon IPC framing and endpoint addressing.

Daemons and their local clients talk over a unix stream socket using
length-prefixed frames: ``!BI`` (opcode, body length) followed by the
body.  Mirrors Spread's IPC-socket client communication (paper §III-E).
Both ends are a :class:`FrameProtocol`: the sans-io :class:`FrameDecoder`
fed from ``data_received``, so every complete frame a read returned is
parsed in the read's own callback — no stream reader, no task per
connection, and a burst of deliveries costs its receiver one wakeup.

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
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.core.messages import SERVICE_FROM_WIRE, DeliveryService
from repro.util.errors import CodecError


@dataclass(frozen=True)
class UnixEndpoint:
    """A daemon's local unix stream socket."""

    path: str

    def __post_init__(self) -> None:
        if not isinstance(self.path, str) or not self.path:
            raise ValueError(f"unix endpoint needs a non-empty path, got {self.path!r}")

    async def open(self) -> "FrameProtocol":
        loop = asyncio.get_running_loop()
        _transport, connection = await loop.create_unix_connection(FrameProtocol, self.path)
        return connection

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

    async def open(self) -> "FrameProtocol":
        loop = asyncio.get_running_loop()
        _transport, connection = await loop.create_connection(
            FrameProtocol, self.host, self.port
        )
        return connection

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


# Opcodes 1-3 belonged to a retired single-group client protocol (submit,
# deliver, config): they are never reused, and a client that sends one is
# disconnected by rule.
OP_JOIN = 4
OP_LEAVE = 5
OP_GROUPCAST = 6
OP_GROUP_VIEW = 7
OP_HELLO = 8
OP_WELCOME = 9

#: ``[B opcode][!I body length]`` in front of every frame body.
FRAME_HEADER = struct.Struct("!BI")
# group-view member count
_COUNT = struct.Struct("!I")

MAX_FRAME = 16 * 1024 * 1024


def pack_frame(opcode: int, body: bytes) -> bytes:
    return FRAME_HEADER.pack(opcode, len(body)) + body


#: One decoded frame: ``(opcode, body)``.
Frame = Tuple[int, bytes]


class FrameDecoder:
    """Sans-io frame parser for one byte stream.

    :meth:`feed` takes whatever a read returned and gives back every
    frame it completed, in order; the bytes of an unfinished frame (down
    to a partial header) wait for the next call.  It never raises: at a
    header announcing more than :data:`MAX_FRAME` bytes it stops, keeps
    the reason in :attr:`error` and decodes nothing further — the frames
    complete before the bad header are returned first, wherever the
    reads cut the stream (PROTOCOL.md §15, "malformed frames").
    """

    __slots__ = ("_buffer", "_wanted", "error")

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Bytes the buffer must hold before parsing it again can get
        #: further than last time (a large frame arrives in many reads).
        self._wanted = 0
        #: Why this stream can no longer be decoded, once it cannot.
        self.error: Optional[CodecError] = None

    @property
    def partial(self) -> bytes:
        """The bytes of the frame still being received."""
        return bytes(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        frames: List[Frame] = []
        if self.error is not None:
            return frames
        buffer = self._buffer
        if buffer:
            # A frame was cut by the last read: parse it joined to this
            # one.  (Only then; a read that starts on a frame boundary is
            # parsed where it is and each body copied once.)
            buffer += data
            if len(buffer) < self._wanted:
                return frames
            data = bytes(buffer)
            buffer.clear()
        unpack_header = FRAME_HEADER.unpack_from
        header_size = FRAME_HEADER.size
        end = len(data)
        offset = 0
        wanted = header_size
        while end - offset >= header_size:
            opcode, length = unpack_header(data, offset)
            if length > MAX_FRAME:
                self.error = CodecError(f"frame too large: {length}")
                return frames
            body = offset + header_size
            if body + length > end:
                wanted += length
                break
            offset = body + length
            frames.append((opcode, data[body:offset]))
        if offset < end:
            buffer += data[offset:]
            self._wanted = wanted
        return frames


#: Handles the frames one read completed, in order, where they were
#: decoded; a ``CodecError`` it raises ends the connection by rule (after
#: it has dealt with the frames ahead of the one it refused).
FramesHandler = Callable[[List[Frame]], None]

#: Bytes a consumer may fall behind its connection before reading stops
#: (what ``asyncio.StreamReader`` buffers at its default limit).
READ_LIMIT = 1 << 17


class FrameProtocol(asyncio.Protocol):
    """One IPC connection, either end: frames decoded in ``data_received``.

    Every read is fed to a :class:`FrameDecoder` in the transport's own
    callback.  What happens to the frames it completed is set per
    connection:

    * with :attr:`on_frames` set (a daemon's client connection), the
      frames of one read are handed over together, right there — as one
      wakeup's datagrams reach a node's pass — so the daemon can pack
      them (PROTOCOL.md §15, "packing").  A ``CodecError`` from the
      handler, or a header the decoder rejects, ends the stream by rule
      after the frames ahead of it (PROTOCOL.md §15, "malformed frames");
    * without it (a client's connection to its daemon), frames wait in
      :attr:`ready`: the consumer pops them and awaits :meth:`wait` only
      when it is empty — one future per empty wait, none per frame.  A
      consumer :data:`READ_LIMIT` bytes behind stops the reading until
      it has caught up.

    :attr:`on_end` hears once that no more frames will be handled, and
    why: the peer's EOF (``IncompleteReadError``) or reset, a malformed
    frame (its ``CodecError``), or the connection closing.  The writing
    half is the part of ``asyncio.StreamWriter`` a
    :class:`~repro.runtime.backpressure.ClientSendQueue` uses — ``write``,
    ``transport``, ``is_closing``, ``drain``, ``close``, ``wait_closed`` —
    so a daemon's send queue writes to its connection directly.
    """

    def __init__(self, on_open: Optional[Callable[["FrameProtocol"], None]] = None) -> None:
        #: Called with this connection once it is up: where a daemon sets
        #: :attr:`on_frames` and :attr:`on_end`.
        self._on_open = on_open
        self.on_frames: Optional[FramesHandler] = None
        self.on_end: Optional[Callable[[BaseException], None]] = None
        #: Decoded frames not yet consumed, oldest first (no ``on_frames``).
        self.ready: Deque[Frame] = deque()
        self.transport: Optional[asyncio.Transport] = None
        self._decoder = FrameDecoder()
        #: Bytes read since the consumer last found ``ready`` empty.
        self._unread = 0
        #: Why no more frames will come, once none will.
        self._end: Optional[BaseException] = None
        self._waiter: Optional[asyncio.Future] = None
        self._writing_paused = False
        self._drain_waiter: Optional[asyncio.Future] = None
        self._lost = False

    # -- the asyncio.Protocol callbacks -------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self._loop = asyncio.get_running_loop()
        self._closed = self._loop.create_future()
        # The transport's own bound methods: a write or a closing check
        # is one call, not one more Python frame around it.
        self.write: Callable[[bytes], None] = transport.write
        self.is_closing: Callable[[], bool] = transport.is_closing
        if self._on_open is not None:
            self._on_open(self)

    def data_received(self, data: bytes) -> None:
        if self._end is not None:
            return  # ended by rule: nothing after the malformed frame is read
        decoder = self._decoder
        frames = decoder.feed(data)
        on_frames = self.on_frames
        if on_frames is None:
            ready = self.ready
            if frames:
                ready.extend(frames)
                waiter = self._waiter
                if waiter is not None:
                    self._waiter = None
                    if not waiter.done():
                        waiter.set_result(None)
            self._unread += len(data)
            if self._unread > READ_LIMIT and ready:
                # The consumer is this far behind: stop reading until it
                # has caught up (wait()), so a client that never reads
                # backs up its daemon's send window, as a stream reader's
                # buffer limit does.
                self.transport.pause_reading()
        elif frames:
            try:
                on_frames(frames)
            except CodecError as error:
                self._finish(error)
                return
        if decoder.error is not None:
            self._finish(decoder.error)

    def eof_received(self) -> bool:
        self._finish(asyncio.IncompleteReadError(self._decoder.partial, None))
        return True  # the owner closes: a daemon writes out its queue first

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._lost = True
        self._finish(
            exc if exc is not None else asyncio.IncompleteReadError(self._decoder.partial, None)
        )
        waiter = self._drain_waiter
        if waiter is not None and not waiter.done():
            if exc is None:
                waiter.set_result(None)
            else:
                waiter.set_exception(exc)
        if not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        waiter = self._drain_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _finish(self, reason: BaseException) -> None:
        if self._end is not None:
            return
        self._end = reason
        waiter = self._waiter
        if waiter is not None:
            # A waiter exists only while ``ready`` is empty.
            self._waiter = None
            if not waiter.done():
                waiter.set_exception(reason)
        if self.on_end is not None:
            self.on_end(reason)

    # -- the reading consumer -------------------------------------------

    def wait(self) -> "asyncio.Future[None]":
        """A future that completes once :attr:`ready` holds a frame.

        Await it only when :attr:`ready` is empty.  It fails with the
        reason the stream ended (``IncompleteReadError`` once the peer is
        gone, the decoder's ``CodecError`` after a malformed header) once
        every frame ahead of the end has been consumed.
        """
        if self._unread > READ_LIMIT:
            self.transport.resume_reading()
        self._unread = 0  # everything read so far has been consumed
        waiter = self._loop.create_future()
        if self._end is not None:
            waiter.set_exception(self._end)
        elif self._waiter is not None and not self._waiter.done():
            raise RuntimeError("another consumer is already waiting for frames")
        else:
            self._waiter = waiter
        return waiter

    # -- the writing half (StreamWriter's, as ClientSendQueue uses it) --

    async def drain(self) -> None:
        """Return once the transport is below its high-water mark."""
        if self.transport.is_closing():
            # Let connection_lost run first, as StreamWriter.drain does.
            await asyncio.sleep(0)
        if self._lost:
            raise ConnectionResetError("Connection lost")
        if self._writing_paused:
            self._drain_waiter = self._loop.create_future()
            await self._drain_waiter

    def close(self) -> None:
        self.transport.close()

    async def wait_closed(self) -> None:
        await asyncio.shield(self._closed)


async def read_frame(reader: asyncio.StreamReader) -> Frame:
    """One frame straight off ``reader``, two awaits and no decoder state.

    Not used by the runtime (see :class:`FrameProtocol`); kept because
    ``benchmarks/e2e/micro.py`` times it.
    """
    header = await reader.readexactly(FRAME_HEADER.size)
    opcode, length = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME:
        raise CodecError(f"frame too large: {length}")
    body = await reader.readexactly(length) if length else b""
    return opcode, body


def _unpack_prefix(layout: struct.Struct, body: bytes, offset: int = 0) -> tuple:
    """``layout`` read from ``body``; a body too short for it is malformed."""
    try:
        return layout.unpack_from(body, offset)
    except struct.error:
        raise CodecError(f"truncated frame body: {len(body)} bytes") from None


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"string too long: {len(raw)} bytes")
    return struct.pack("!H", len(raw)) + raw


def _unpack_str(body: bytes, offset: int) -> Tuple[str, int]:
    start = offset + 2
    if start > len(body):
        raise CodecError("truncated string length")
    end = start + ((body[offset] << 8) | body[offset + 1])
    if end > len(body):
        raise CodecError("truncated string")
    try:
        return body[start:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise CodecError(f"string is not UTF-8: {exc}") from None


def pack_group_op(opcode: int, group: str) -> bytes:
    return pack_frame(opcode, _pack_str(group))


def unpack_group_op(body: bytes) -> str:
    group, _ = _unpack_str(body, 0)
    return group


def groupcast_header(groups: List[str], service: DeliveryService) -> bytes:
    """The bytes of an ``OP_GROUPCAST`` body before its payload:
    ``[B service][B count]{[!H len][group]}*``."""
    if len(groups) > 0xFF:
        raise CodecError(f"too many target groups: {len(groups)}")
    return bytes((service, len(groups))) + b"".join(map(_pack_str, groups))


def pack_groupcast(groups: List[str], service: DeliveryService, payload: bytes) -> bytes:
    return pack_frame(OP_GROUPCAST, groupcast_header(groups, service) + payload)


def unpack_groupcast(body: bytes) -> Tuple[List[str], DeliveryService, bytes]:
    """The reference decoder: every name bounds-checked and UTF-8-decoded."""
    if len(body) < 2:
        raise CodecError(f"truncated groupcast header: {len(body)} bytes")
    service = SERVICE_FROM_WIRE[body[0]]
    offset = 2
    groups = []
    for _ in range(body[1]):
        group, offset = _unpack_str(body, offset)
        groups.append(group)
    return groups, service, body[offset:]


def group_list_end(data: bytes, start: int, size: int) -> int:
    """Where the group list ``[B count]{[!H len][group]}*`` at
    ``data[start:]`` ends: at ``start = 1`` of an ``OP_GROUPCAST`` body,
    where its payload starts.

    Walks the count and the name lengths only, checked against ``size``;
    names and service are not looked at (:func:`unpack_groupcast` does
    that; :class:`GroupcastHeaders` runs it once per distinct header).
    """
    if start >= size:
        raise CodecError("truncated group count")
    end = start + 1
    for _ in range(data[start]):
        if end + 2 > size:
            raise CodecError("truncated group name length")
        end += 2 + ((data[end] << 8) | data[end + 1])
    if end > size:
        raise CodecError("truncated group name")
    return end


#: Distinct headers one :class:`GroupcastHeaders` remembers.  The headers
#: come from the peer, so the memo is bounded: at the cap it starts over.
HEADER_MEMO_CAP = 1024


class GroupcastHeaders:
    """Parses ``OP_GROUPCAST`` bodies, decoding each distinct header once.

    A connection carries few distinct ``(service, groups)`` headers and
    many payloads.  The exact header bytes key a memo of what the
    reference :func:`unpack_groupcast` made of them, so a hit means
    *these bytes* passed its bounds, UTF-8 and service checks before,
    and a body it rejects is rejected here, memo warm or cold.

    The header of the last body is tried first, as a prefix: a header is
    self-delimiting (the count and the name lengths inside it say where
    it ends), so a body that starts with an accepted header has that
    header, whatever follows.
    """

    __slots__ = ("_known", "_last_header", "_last")

    def __init__(self) -> None:
        self._known: Dict[bytes, Tuple[Tuple[str, ...], DeliveryService, int]] = {}
        #: ``startswith`` takes a tuple of prefixes: with none to try,
        #: the first body matches nothing, whatever its bytes.
        self._last_header: Union[bytes, Tuple[()]] = ()
        self._last: Optional[Tuple[Tuple[str, ...], DeliveryService, int]] = None

    def parse(self, body: bytes) -> Tuple[Tuple[str, ...], DeliveryService, int]:
        """``(groups, service, payload offset)`` of one body."""
        if body.startswith(self._last_header):
            return self._last
        end = group_list_end(body, 1, len(body))
        header = body[:end]
        known = self._known.get(header)
        if known is None:
            groups, service, _payload = unpack_groupcast(body)
            known = (tuple(groups), service, end)
            if len(self._known) >= HEADER_MEMO_CAP:
                self._known.clear()
            self._known[header] = known
        self._last_header = header
        self._last = known
        return known


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
    parts = [_pack_str(group), _COUNT.pack(len(members))]
    for member in members:
        parts.append(_pack_str(member))
    return pack_frame(OP_GROUP_VIEW, b"".join(parts))


def unpack_group_view(body: bytes) -> Tuple[str, List[str]]:
    group, offset = _unpack_str(body, 0)
    (count,) = _unpack_prefix(_COUNT, body, offset)
    offset += _COUNT.size
    members = []
    for _ in range(count):
        member, offset = _unpack_str(body, offset)
        members.append(member)
    return group, members

"""The Spread-like daemon: groups, packing, fragmentation, multi-group
multicast over the ordering stack.

Architecture (paper §I): the client-daemon split provides a clean
separation between middleware and application, lets one set of daemons
serve several applications, and enables open-group semantics.  Every
group operation rides the total order, so all daemons apply membership
changes at the same point relative to data messages.

One daemon runs per server, serving its local clients over a unix socket
(and, optionally, remote ones over TCP): paper §IV-A, "each of the 8
participating servers ran one daemon, one sending client ... and one
receiving client".  A client connection is an
:class:`~repro.runtime.ipc.FrameProtocol`: the frames of one read are
handled together in the read's own callback — its groupcasts packed, as
the client wrote them, into as few ordered messages as fit one datagram
(paper §IV-A3) — and a task
exists only for the asynchronous part of a disconnect (writing out what
is queued, then closing).  Client fan-out
is byte-bounded: each session owns a
:class:`~repro.runtime.backpressure.ClientSendQueue`, so a client that
stops reading is disconnected when it falls a window behind rather than
growing the daemon's heap without limit.
"""

from __future__ import annotations

import asyncio
import functools
import os
import struct
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.codec import DATA_HEADER_BYTES
from repro.core.messages import DataMessage, DeliveryService
from repro.evs.configuration import Configuration
from repro.runtime import ipc
from repro.runtime.backpressure import (
    DEFAULT_CLIENT_WINDOW_BYTES,
    ClientSendQueue,
    flush_all,
)
from repro.runtime.node import RingNode
from repro.runtime.transport import DATAGRAM_BUDGET, PeerAddress
from repro.spread.fragmentation import Fragmenter, FragmentReassembler
from repro.spread.groups import GroupDirectory, qualify
from repro.spread.wire import (
    ENV_FRAGMENT,
    ENV_FRAMES,
    ENV_JOIN,
    ENV_LEAVE,
    GroupJoin,
    GroupLeave,
    decode_envelope,
    frames_prefix,
)
from repro.util.errors import CodecError

#: Distinct group lists a daemon remembers the local route of.  The
#: lists come from clients, so the memo is bounded: at the cap it starts
#: over.
ROUTE_MEMO_CAP = 1024

#: Bytes one frames container may take: what one data datagram carries
#: of a single message's payload (PROTOCOL.md §15, "packing").
CONTAINER_BUDGET = DATAGRAM_BUDGET - DATA_HEADER_BYTES

_OP_GROUPCAST = ipc.OP_GROUPCAST
_group_list_end = ipc.group_list_end
_pack_frame_header = ipc.FRAME_HEADER.pack
_unpack_frame_header = ipc.FRAME_HEADER.unpack_from
_FRAME_HEADER_SIZE = ipc.FRAME_HEADER.size


class _ClientSession:
    """One connected client, its bounded send queue, and joined groups."""

    def __init__(
        self,
        member_name: str,
        connection: ipc.FrameProtocol,
        window_bytes: int = DEFAULT_CLIENT_WINDOW_BYTES,
        unflushed: Optional[List[ClientSendQueue]] = None,
    ) -> None:
        self.member_name = member_name
        self.queue = ClientSendQueue(connection, window_bytes, unflushed)
        self.joined: Set[str] = set()
        #: How every frames container this client sends begins.
        self.frames_prefix = frames_prefix(member_name)


class SpreadDaemon:
    """A group-aware daemon on one server: a ring node serving local
    clients.

    ``pack_budget`` is only the fragment chunk size: a groupcast whose
    one-frame container is longer than it is ordered as that container's
    fragments, and so is a longer join or leave.  It is not the budget of
    a frames container — that is :data:`CONTAINER_BUDGET`, derived from
    the datagram budget and not an option (PROTOCOL.md §15, "packing").
    """

    def __init__(
        self,
        pid: int,
        peers: Dict[int, PeerAddress],
        socket_path: str,
        accelerated: bool = True,
        pack_budget: int = 1350,
        tcp_port: Optional[int] = None,
        client_window_bytes: int = DEFAULT_CLIENT_WINDOW_BYTES,
        **node_kwargs,
    ) -> None:
        # ``clock=`` (and every other RingNode knob) passes through
        # node_kwargs, so tests can inject a controllable time source
        # into the daemon's membership timeouts.
        node = RingNode(pid=pid, peers=peers, accelerated=accelerated, **node_kwargs)
        self.pid = node.pid
        self.node = node
        self.socket_path = socket_path
        #: Optional TCP listener for remote clients.  The paper notes
        #: Spread supports TCP clients but recommends co-locating clients
        #: with daemons on LANs; we offer the same choice.
        self.tcp_port = tcp_port
        self.client_window_bytes = client_window_bytes
        #: Client queues holding frames of the node's current batch.
        self._unflushed: List[ClientSendQueue] = []
        node.on_batch_end = lambda: flush_all(self._unflushed)
        node.on_deliver = self._ordered_delivery
        node.on_config = self._config_changed
        self._server: Optional[asyncio.AbstractServer] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        #: Connections that have not sent their hello yet: no session
        #: tracks them, so :meth:`stop` closes them from here.
        self._awaiting_hello: Set[ipc.FrameProtocol] = set()
        #: Disconnects still writing out their queue.
        self._disconnecting: Set[asyncio.Task] = set()
        self.clients_dropped_slow = 0
        #: Clients disconnected for sending a frame that does not decode.
        self.clients_dropped_malformed = 0
        self.directory = GroupDirectory()
        self.fragmenter = Fragmenter(chunk_size=pack_budget)
        #: The groupcast frames of one client read not yet submitted,
        #: head and body each (empty between reads), their bytes, their
        #: service and their client.
        self._pending: List[bytes] = []
        self._pending_size = 0
        self._pending_service = DeliveryService.AGREED
        self._pending_session: Optional[_ClientSession] = None
        #: Frames containers submitted, and the groupcasts inside them.
        self.containers_sent = 0
        self.envelopes_packed = 0
        self.reassembler = FragmentReassembler()
        self._sessions: Dict[str, _ClientSession] = {}
        #: Validated groupcast headers (ingest side of "validate at
        #: ingest, forward after", PROTOCOL.md §15).
        self._headers = ipc.GroupcastHeaders()
        #: Groupcast header bytes ``[service][count]{groups}`` -> the
        #: local sessions of its groups, in sorted member order.  Holds
        #: only while neither the directory nor ``_sessions`` changes: see
        #: :meth:`_drop_routes`.
        self._routes: Dict[bytes, Tuple[_ClientSession, ...]] = {}
        #: The header last forwarded and its route: headers are
        #: self-delimiting, so a frame whose body starts with these bytes
        #: has this route.
        #: ``startswith(())`` matches nothing, so an empty memo misses.
        self._last_header: Union[bytes, Tuple[()]] = ()
        self._last_route: Tuple[_ClientSession, ...] = ()
        #: The chunk being built while a delivered run is applied: the
        #: client frames of consecutive messages with one route, a slice
        #: of a container each, sent as one piece (PROTOCOL.md §15, "a
        #: run at a time").  Empty between runs.
        self._chunk: List[bytes] = []
        #: The messages the chunk holds.
        self._chunk_count = 0
        #: The sessions the chunk is for: the route of the last frames.
        self._chunk_route: Tuple[_ClientSession, ...] = ()
        self._client_counter = 0
        self.messages_delivered_to_clients = 0
        #: Socket writes made for clients that have since disconnected.
        self._writes_to_gone = 0
        #: Ordered envelopes skipped because they do not decode.
        self.envelopes_undecodable = 0

    async def start(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        await self.node.start()
        loop = asyncio.get_running_loop()
        connection = functools.partial(ipc.FrameProtocol, self._client_connected)
        self._server = await loop.create_unix_server(connection, path=self.socket_path)
        if self.tcp_port is not None:
            self._tcp_server = await loop.create_server(
                connection, host="127.0.0.1", port=self.tcp_port
            )

    async def stop(self) -> None:
        """Stop serving: close every client connection, then fail-stop
        the node."""
        servers = [s for s in (self._server, self._tcp_server) if s is not None]
        self._server = None
        self._tcp_server = None
        for server in servers:
            server.close()
        # Every accepted connection is closed before the servers are
        # awaited: from Python 3.12.1, ``wait_closed`` waits for them.
        for connection in self._awaiting_hello:
            connection.close()
        self._awaiting_hello.clear()
        sessions = list(self._sessions.values())
        self._sessions.clear()
        self._drop_routes()
        for session in sessions:
            await session.queue.aclose()
            self._writes_to_gone += session.queue.writes
        for server in servers:
            await server.wait_closed()
        # The disconnects those closes set off, and any still writing out.
        await asyncio.gather(*self._disconnecting)
        await self.node.stop()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def _client_connected(self, connection: ipc.FrameProtocol) -> None:
        self._awaiting_hello.add(connection)
        connection.on_frames = functools.partial(self._hello, connection)
        connection.on_end = functools.partial(self._gone_before_hello, connection)

    def _hello(self, connection: ipc.FrameProtocol, frames: List[ipc.Frame]) -> None:
        """The first frame: name the session, welcome it, and hand the
        connection's later frames — the rest of this read included — to
        :meth:`_handle_client_read`."""
        opcode, body = frames[0]
        if opcode != ipc.OP_HELLO:
            raise CodecError("client must introduce itself first")
        self._awaiting_hello.discard(connection)
        self._client_counter += 1
        private = ipc.unpack_hello(body) or f"client{self._client_counter}"
        member_name = qualify(private, self.pid)
        if member_name in self._sessions:
            member_name = qualify(f"{private}.{self._client_counter}", self.pid)
        session = _ClientSession(
            member_name, connection, self.client_window_bytes, self._unflushed
        )
        self._attach(session)
        connection.on_frames = functools.partial(self._handle_client_read, session)
        connection.on_end = functools.partial(self._session_gone, session)
        session.queue.send(ipc.pack_welcome(member_name))
        flush_all(self._unflushed)
        if len(frames) > 1:
            self._handle_client_read(session, frames[1:])

    def _gone_before_hello(
        self, connection: ipc.FrameProtocol, reason: BaseException
    ) -> None:
        """A connection that ended without a session: closed, and counted
        if it ended on a malformed frame (any frame before the hello)."""
        self._awaiting_hello.discard(connection)
        if isinstance(reason, CodecError):
            self.clients_dropped_malformed += 1
        connection.close()

    def _session_gone(self, session: _ClientSession, reason: BaseException) -> None:
        """A half-closed, reset, dropped or malformed connection: the
        session ends exactly like a voluntary disconnect (PROTOCOL.md
        §15) — forgotten, its groups left in the total order, counted if
        it ended on a malformed frame, its queue written out and closed
        in a task."""
        self._detach(session)
        for group in sorted(session.joined):
            self._submit_envelope(
                GroupLeave(member=session.member_name, group=group).encode(),
                DeliveryService.AGREED,
            )
        if isinstance(reason, CodecError):
            self.clients_dropped_malformed += 1
        task = asyncio.get_running_loop().create_task(self._close_queue(session.queue))
        self._disconnecting.add(task)
        task.add_done_callback(self._disconnecting.discard)

    async def _close_queue(self, queue: ClientSendQueue) -> None:
        await queue.drain_and_close()
        if queue.dropped_slow:
            self.clients_dropped_slow += 1

    def _attach(self, session: _ClientSession) -> None:
        self._sessions[session.member_name] = session
        self._drop_routes()

    def _detach(self, session: _ClientSession) -> None:
        if self._sessions.pop(session.member_name, None) is not None:
            self._writes_to_gone += session.queue.writes
        self._drop_routes()

    @property
    def client_writes(self) -> int:
        """Socket writes made to clients (a batch of deliveries is one)."""
        return self._writes_to_gone + sum(
            session.queue.writes for session in self._sessions.values()
        )

    def _handle_client_read(
        self, session: _ClientSession, frames: List[ipc.Frame]
    ) -> None:
        """The frames one read of ``session``'s connection completed, in
        order (PROTOCOL.md §15, "packing").  Each groupcast is validated
        and its frame kept as the client wrote it, to be submitted with
        the read's others as one frames container of at most
        :data:`CONTAINER_BUDGET` bytes — a read of one groupcast is a
        container of one frame; the frames kept are submitted on a change
        of service, before a join or a leave, before a groupcast whose
        one-frame container must fragment, and at the end of the read — a
        ``CodecError`` included, so the frames ahead of a malformed one
        are ordered before the session's leaves."""
        pending = self._pending
        parse = self._headers.parse
        self._pending_session = session
        prefix = session.frames_prefix
        room = CONTAINER_BUDGET - len(prefix)
        # The longest frame whose one-frame container is one fragment.
        largest = self.fragmenter.chunk_size - len(prefix)
        try:
            for opcode, body in frames:
                if opcode == _OP_GROUPCAST:  # the hot case, tested first
                    # Validate here, forward after: the header is checked
                    # (once per distinct header) and the frame is kept
                    # byte for byte.
                    _groups, service, _end = parse(body)
                    if service is not self._pending_service:
                        self._flush_pending()
                        self._pending_service = service
                    length = len(body)
                    head = _pack_frame_header(_OP_GROUPCAST, length)
                    size = _FRAME_HEADER_SIZE + length
                    if size > largest:
                        # Alone, as the fragments of its one-frame container.
                        self._submit_envelope(prefix + head + body, service)
                        self.containers_sent += 1
                        self.envelopes_packed += 1
                        continue
                    if self._pending_size + size > room:
                        self._flush_pending()
                    pending += (head, body)
                    self._pending_size += size
                elif opcode == ipc.OP_JOIN:
                    group = ipc.unpack_group_op(body)
                    session.joined.add(group)
                    self._submit_envelope(
                        GroupJoin(member=session.member_name, group=group).encode(),
                        DeliveryService.AGREED,
                    )
                elif opcode == ipc.OP_LEAVE:
                    group = ipc.unpack_group_op(body)
                    session.joined.discard(group)
                    self._submit_envelope(
                        GroupLeave(member=session.member_name, group=group).encode(),
                        DeliveryService.AGREED,
                    )
                else:
                    raise CodecError(f"unexpected client opcode {opcode}")
        finally:
            self._flush_pending()

    def _flush_pending(self) -> None:
        """Submit the frames kept as one frames container."""
        pending = self._pending
        if not pending:
            return
        self.containers_sent += 1
        self.envelopes_packed += len(pending) >> 1
        pending.insert(0, self._pending_session.frames_prefix)
        payload = b"".join(pending)
        pending.clear()
        self._pending_size = 0
        self.node.submit(payload=payload, service=self._pending_service)

    def _submit_envelope(self, envelope: bytes, service: DeliveryService) -> None:
        """Submit ``envelope`` now, behind the frames kept: whole if it
        fits the fragment chunk size, else as its fragments in order."""
        self._flush_pending()
        submit = self.node.submit
        for piece in self.fragmenter.fragment(envelope):
            submit(payload=piece, service=service)

    # ------------------------------------------------------------------
    # Ordered delivery side
    # ------------------------------------------------------------------

    def _ordered_delivery(self, messages: Sequence[DataMessage], config_id: int) -> None:
        """Apply one delivered run.  Never raises into the ordering
        pass: an envelope that does not decode is counted and skipped —
        every daemon sees the same bytes, so all skip alike."""
        for message in messages:
            payload = message.payload
            try:
                if payload and payload[0] == ENV_FRAMES:  # the hot case
                    self._forward_frames(payload, message.service)
                else:
                    self._apply_envelope(payload, message)
            except CodecError:
                self.envelopes_undecodable += 1
        self._cut_chunk()

    def _apply_envelope(
        self, envelope: bytes, message: DataMessage, reassembled: bool = False
    ) -> None:
        """One envelope that is not a frames container straight off the
        order: a fragment or (``reassembled``) what its fragments made, a
        join, a leave."""
        tag = envelope[0] if envelope else None
        if tag == ENV_FRAGMENT and not reassembled:
            whole = self.reassembler.accept(message.pid, decode_envelope(envelope))
            if whole is not None:
                self._apply_envelope(whole, message, reassembled=True)
        elif tag == ENV_FRAMES:  # reassembled: a groupcast past one fragment
            self._forward_frames(envelope, message.service)
        elif tag == ENV_JOIN or tag == ENV_LEAVE:
            change = decode_envelope(envelope)
            if isinstance(change, GroupJoin):
                self.directory.apply_join(change.member, change.group)
            else:
                self.directory.apply_leave(change.member, change.group)
            self._notify_views()
        else:
            raise CodecError(f"unexpected envelope tag {tag}")

    def _forward_frames(self, container: bytes, service: DeliveryService) -> None:
        """Forward the groupcast frames of a frames container, each run of
        consecutive frames with one route as one slice of the container.

        The container is walked once, before anything is forwarded: a
        frame running past it makes the whole container a ``CodecError``;
        a frame that is not a groupcast under the container's service, or
        whose group list does not decode, is counted undecodable and
        skipped, and the frames around it are forwarded.  The forwarder
        reads neither the sender nor the payloads.
        """
        size = len(container)
        if size < 3:
            raise CodecError(f"truncated frames container: {size} bytes")
        at = 3 + ((container[1] << 8) | container[2])
        if at > size:
            raise CodecError("truncated sender")
        last_route = self._last_route
        # A groupcast body that starts with this has the last route.  A
        # header begins with its service byte: one under another service
        # than the container's would pass frames that must be skipped.
        expect = self._last_header
        if not expect or expect[0] != service:
            expect = ()
        # (route, start, end, frames) of each run of one route; the first
        # run starts here, on the last route until a frame says otherwise.
        runs = []
        route = last_route
        first = at
        count = skipped = 0
        try:
            while at < size:
                opcode, length = _unpack_frame_header(container, at)
                body = at + _FRAME_HEADER_SIZE
                end = body + length
                if end > size:
                    raise CodecError("truncated frame")
                if opcode == _OP_GROUPCAST and container.startswith(expect, body, end):
                    frame_route = last_route
                else:
                    frame_route = self._frame_route(container, opcode, body, end, service)
                    if frame_route is not None:
                        expect = self._last_header
                        last_route = frame_route
                if frame_route is not route:
                    if count:
                        runs.append((route, first, at, count))
                    route = frame_route
                    first = at
                    count = 0
                if frame_route is None:
                    skipped += 1
                else:
                    count += 1
                at = end
        except struct.error:
            raise CodecError("truncated frame header") from None
        if count:
            runs.append((route, first, at, count))
        if skipped:
            self.envelopes_undecodable += skipped
        chunk = self._chunk
        for route, first, end, count in runs:
            if route != self._chunk_route:
                self._cut_chunk()
                self._chunk_route = route
            if route:
                chunk.append(container[first:end])
                self._chunk_count += count

    def _frame_route(
        self, container: bytes, opcode: int, body: int, end: int, service: DeliveryService
    ) -> Optional[Tuple[_ClientSession, ...]]:
        """The route of the frame whose body is ``container[body:end]``,
        its header not the last one forwarded, remembered as the last one;
        ``None`` if it is not a groupcast under ``service`` or its group
        list does not decode."""
        if opcode != _OP_GROUPCAST or body == end or container[body] != service:
            return None
        try:
            header = container[body : _group_list_end(container, body + 1, end)]
            route = self._routes.get(header)
            if route is None:
                route = self._resolve_route(header)
        except CodecError:
            return None
        self._last_header = header
        self._last_route = route
        return route

    def _cut_chunk(self) -> None:
        """Hand the pending chunk to each session of its route: one
        ``send`` — one closing check, one window reservation — for all
        its frames.  Everything else that writes to a session (a view)
        cuts first, so a session's bytes keep the order of the run."""
        chunk = self._chunk
        if chunk:
            data = b"".join(chunk)
            count = self._chunk_count
            chunk.clear()
            self._chunk_count = 0
            for session in self._chunk_route:
                if session.queue.send(data):
                    self.messages_delivered_to_clients += count

    def _resolve_route(self, header: bytes) -> Tuple[_ClientSession, ...]:
        """The route of a groupcast header not seen since the last change:
        its names decoded by the reference decoder and resolved in the
        directory."""
        targets: Set[str] = set()
        groups, _service, _payload = ipc.unpack_groupcast(header)
        for group in groups:
            targets.update(self.directory.members(group))
        sessions = self._sessions
        # Sorted, so the write order to local sessions is the same on
        # every daemon and every run; members of other daemons drop out.
        route = tuple(sessions[member] for member in sorted(targets) if member in sessions)
        if len(self._routes) >= ROUTE_MEMO_CAP:
            self._routes.clear()
        self._routes[header] = route
        return route

    def _drop_routes(self) -> None:
        """Forget every route.  Called on *any* change to what a route is
        made from — the directory (join, leave, configuration) or
        ``_sessions`` (connect, disconnect, including a reconnect under
        the same name: a route holds sessions, not names)."""
        self._routes.clear()
        self._last_header = ()
        self._last_route = ()

    def _config_changed(self, configuration: Configuration) -> None:
        if configuration.transitional:
            return
        self.directory.apply_configuration(configuration.members)
        self._notify_views()

    def _notify_views(self) -> None:
        """Runs after every directory change: routes go, views go out
        (behind the data ordered before the change)."""
        self._cut_chunk()
        self._drop_routes()
        for group in self.directory.take_dirty():
            members = list(self.directory.members(group))
            frame = ipc.pack_group_view(group, members)
            # Sorted so the write order to local sessions is the same on
            # every daemon and every run (set iteration is not).
            for member in sorted(set(members)):
                session = self._sessions.get(member)
                if session is not None:
                    session.queue.send(frame)

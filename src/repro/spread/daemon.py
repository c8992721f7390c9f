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
handled together in the read's own callback — its groupcasts packed into
as few ordered messages as fit one datagram (paper §IV-A3) — and a task
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
from repro.spread.packing import Packer
from repro.spread.wire import (
    ENV_APP,
    ENV_FRAGMENT,
    ENV_JOIN,
    ENV_LEAVE,
    ENV_PACKED,
    GroupJoin,
    GroupLeave,
    app_data_prefix,
    app_data_span,
    decode_envelope,
    packed_item_spans,
)
from repro.util.errors import CodecError

#: Distinct group lists a daemon remembers the local route of.  The
#: lists come from clients, so the memo is bounded: at the cap it starts
#: over.
ROUTE_MEMO_CAP = 1024

#: Bytes one packed container may take: what one data datagram carries
#: of a single message's payload (PROTOCOL.md §15, "packing").
CONTAINER_BUDGET = DATAGRAM_BUDGET - DATA_HEADER_BYTES

_NO_SENDER = app_data_prefix("")
_pack_groupcast_head = ipc.GROUPCAST_HEAD.pack


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
        #: How every AppData envelope this client sends begins.
        self.envelope_prefix = app_data_prefix(member_name)


class SpreadDaemon:
    """A group-aware daemon on one server: a ring node serving local
    clients.

    ``pack_budget`` is only the fragment chunk size: an envelope longer
    than it is ordered as its fragments.  It is not the budget of a
    packed container — that is :data:`CONTAINER_BUDGET`, derived from
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
        #: Packs the groupcasts of one client read; empty between reads.
        self.packer = Packer(budget=CONTAINER_BUDGET)
        #: The service of every envelope the packer holds.
        self._packing_service = DeliveryService.AGREED
        #: Packed containers submitted, and the envelopes inside them.
        self.containers_sent = 0
        self.envelopes_packed = 0
        self.reassembler = FragmentReassembler()
        self._sessions: Dict[str, _ClientSession] = {}
        #: Validated groupcast headers (ingest side of "validate at
        #: ingest, forward after", PROTOCOL.md §15).
        self._headers = ipc.GroupcastHeaders()
        #: Group-list bytes of an envelope -> the local sessions it goes
        #: to, in sorted member order.  Holds only while neither the
        #: directory nor ``_sessions`` changes: see :meth:`_drop_routes`.
        self._routes: Dict[bytes, Tuple[_ClientSession, ...]] = {}
        #: The last forwarded envelope's tag + sender + group list, where
        #: its group list starts (counted from the envelope's first byte),
        #: and its route: the next envelope that starts with the same
        #: bytes has the same span and route.
        #: ``startswith(())`` matches nothing, so an empty memo misses.
        self._last_prefix: Union[bytes, Tuple[()]] = ()
        self._last_start = 0
        self._last_route: Tuple[_ClientSession, ...] = ()
        #: The chunk being built while a delivered run is applied: the
        #: client frames (head, tail, head, tail, ...) of consecutive
        #: messages with one route, sent as one piece (PROTOCOL.md §15,
        #: "a run at a time").  Empty between runs.
        self._chunk: List[bytes] = []
        #: The sessions the chunk is for: the route of the last AppData.
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
        order (PROTOCOL.md §15, "packing").  Groupcasts are packed into as
        few ordered payloads as fit :data:`CONTAINER_BUDGET`; the packer is
        flushed on a change of service, before a join or a leave, before
        an envelope that must fragment, and at the end of the read — a
        ``CodecError`` included, so the frames ahead of a malformed one
        are ordered before the session's leaves."""
        packer = self.packer
        needs_fragmentation = self.fragmenter.needs_fragmentation
        try:
            for opcode, body in frames:
                if opcode == ipc.OP_GROUPCAST:  # the hot case, tested first
                    # Validate here, forward after: the header is checked
                    # (once per distinct header) and the body after its
                    # service byte is, byte for byte, the envelope after
                    # its sender.
                    _groups, service, _end = self._headers.parse(body)
                    envelope = session.envelope_prefix + body[1:]
                    if service is not self._packing_service:
                        self._flush_packer()
                        self._packing_service = service
                    if needs_fragmentation(envelope):
                        self._submit_envelope(envelope, service)
                    else:
                        for payload in packer.add(envelope):
                            self._submit(payload, service)
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
            self._flush_packer()

    def _flush_packer(self) -> None:
        for payload in self.packer.flush():
            self._submit(payload, self._packing_service)

    def _submit_envelope(self, envelope: bytes, service: DeliveryService) -> None:
        """Submit ``envelope`` now, behind whatever the packer held: whole
        if it fits the fragment chunk size, else as its fragments in
        order."""
        self._flush_packer()
        fragmenter = self.fragmenter
        if fragmenter.needs_fragmentation(envelope):
            for piece in fragmenter.fragment(envelope):
                self._submit(piece, service)
        else:
            self._submit(envelope, service)

    def _submit(self, payload: bytes, service: DeliveryService) -> None:
        """Submit one ordered payload, counting it if it is a container."""
        if payload[0] == ENV_PACKED:
            self.containers_sent += 1
            self.envelopes_packed += (payload[1] << 8) | payload[2]
        self.node.submit(payload=payload, service=service)

    # ------------------------------------------------------------------
    # Ordered delivery side
    # ------------------------------------------------------------------

    def _ordered_delivery(self, messages: Sequence[DataMessage], config_id: int) -> None:
        """Apply one delivered run.  Never raises into the ordering
        pass: an envelope that does not decode is counted and skipped —
        every daemon sees the same bytes, so all skip alike."""
        forward = self._forward_app_data
        for message in messages:
            payload = message.payload
            try:
                tag = payload[0] if payload else None
                if tag == ENV_APP:  # bare: one client's read held one groupcast
                    forward(payload, message.service, 0, len(payload))
                elif tag == ENV_PACKED:  # the hot case under load
                    self._apply_container(payload, message)
                else:
                    self._apply_envelope(payload, message)
            except CodecError:
                self.envelopes_undecodable += 1
        self._cut_chunk()

    def _apply_container(self, container: bytes, message: DataMessage) -> None:
        """Each item of a packed container, in order.  An AppData item is
        forwarded straight from the container's bytes; any other item is
        applied as an envelope of its own.  A container whose items do not
        all fit raises before any item is applied; an item that does not
        decode is counted and skipped."""
        spans = packed_item_spans(container)
        forward = self._forward_app_data
        service = message.service
        for start, end in spans:
            try:
                if start < end and container[start] == ENV_APP:
                    forward(container, service, start, end)
                else:
                    self._apply_envelope(container[start:end], message)
            except CodecError:
                self.envelopes_undecodable += 1

    def _apply_envelope(
        self, envelope: bytes, message: DataMessage, reassembled: bool = False
    ) -> None:
        """One envelope that is not AppData straight off the order: a
        fragment or (``reassembled``) what its fragments made, a join, a
        leave, an item of a container that is not AppData."""
        tag = envelope[0] if envelope else None
        if tag == ENV_APP:
            self._forward_app_data(envelope, message.service, 0, len(envelope))
        elif tag == ENV_FRAGMENT and not reassembled:
            whole = self.reassembler.accept(message.pid, decode_envelope(envelope))
            if whole is not None:
                self._apply_envelope(whole, message, reassembled=True)
        elif tag == ENV_JOIN or tag == ENV_LEAVE:
            change = decode_envelope(envelope)
            if isinstance(change, GroupJoin):
                self.directory.apply_join(change.member, change.group)
            else:
                self.directory.apply_leave(change.member, change.group)
            self._notify_views()
        else:
            raise CodecError(f"unexpected envelope tag {tag}")

    def _forward_app_data(
        self, data: bytes, service: DeliveryService, at: int, end: int
    ) -> None:
        """Frame the AppData envelope ``data[at:end]`` for the local
        members of its groups (the whole of ``data``, or one item of a
        packed container, which is not copied out first).

        From its group list on, the envelope is a groupcast body after
        the service byte (the shared tail, PROTOCOL.md §15): the client
        frame is those bytes behind a new head, and the group-list bytes
        themselves key the route.  The frame joins the chunk of the
        messages before it while the route stays the same; the sessions
        get it when the chunk is cut.

        The envelope is first tried against the last one's prefix (tag,
        sender, group list): that prefix is self-delimiting — its length
        fields say where it ends, as a groupcast header's do
        (:class:`~repro.runtime.ipc.GroupcastHeaders`) — so an envelope
        that starts with it has its span, and, until the next change
        (:meth:`_drop_routes`), its route.
        """
        if data.startswith(self._last_prefix, at, end):
            start = at + self._last_start
            route = self._last_route
        else:
            start, groups_end = app_data_span(data, at, end)
            key = data[start:groups_end]
            route = self._routes.get(key)
            if route is None:
                route = self._resolve_route(key)
            self._last_prefix = data[at:groups_end]
            self._last_start = start - at
            self._last_route = route
        if route != self._chunk_route:
            self._cut_chunk()
            self._chunk_route = route
        if route:
            # The layout groupcast_frame_from_tail writes, left in two
            # pieces for the chunk's one join.
            chunk = self._chunk
            chunk.append(_pack_groupcast_head(ipc.OP_GROUPCAST, 1 + end - start, service))
            chunk.append(data[start:end])

    def _cut_chunk(self) -> None:
        """Hand the pending chunk to each session of its route: one
        ``send`` — one closing check, one window reservation — for all
        its frames.  Everything else that writes to a session (a view)
        cuts first, so a session's bytes keep the order of the run."""
        chunk = self._chunk
        if chunk:
            data = b"".join(chunk)
            count = len(chunk) // 2
            chunk.clear()
            for session in self._chunk_route:
                if session.queue.send(data):
                    self.messages_delivered_to_clients += count

    def _resolve_route(self, key: bytes) -> Tuple[_ClientSession, ...]:
        """The route of a group list not seen since the last change: its
        names decoded by the reference codec (from an envelope that is
        only them — the forwarder reads neither sender nor payload) and
        resolved in the directory."""
        targets: Set[str] = set()
        for group in decode_envelope(_NO_SENDER + key).groups:
            targets.update(self.directory.members(group))
        sessions = self._sessions
        # Sorted, so the write order to local sessions is the same on
        # every daemon and every run; members of other daemons drop out.
        route = tuple(sessions[member] for member in sorted(targets) if member in sessions)
        if len(self._routes) >= ROUTE_MEMO_CAP:
            self._routes.clear()
        self._routes[key] = route
        return route

    def _drop_routes(self) -> None:
        """Forget every route.  Called on *any* change to what a route is
        made from — the directory (join, leave, configuration) or
        ``_sessions`` (connect, disconnect, including a reconnect under
        the same name: a route holds sessions, not names)."""
        self._routes.clear()
        self._last_prefix = ()
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

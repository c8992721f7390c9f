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
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.messages import DataMessage, DeliveryService
from repro.evs.configuration import Configuration
from repro.runtime import ipc
from repro.runtime.backpressure import (
    DEFAULT_CLIENT_WINDOW_BYTES,
    ClientSendQueue,
    flush_all,
)
from repro.runtime.node import RingNode
from repro.runtime.transport import PeerAddress
from repro.spread.fragmentation import Fragmenter, FragmentReassembler
from repro.spread.frames import Payload, frames_prefix, pack_groupcasts, walk_frames
from repro.spread.groups import GroupDirectory, qualify
from repro.spread.wire import (
    ENV_FRAGMENT,
    ENV_FRAMES,
    ENV_JOIN,
    ENV_LEAVE,
    GroupJoin,
    GroupLeave,
    decode_envelope,
)
from repro.util.errors import CodecError

#: Distinct group lists a daemon remembers the local route of.  The
#: lists come from clients, so the memo is bounded: at the cap it starts
#: over.
ROUTE_MEMO_CAP = 1024

_OP_GROUPCAST = ipc.OP_GROUPCAST


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
    clients.  How its clients' groupcasts are ordered — the frames
    container, its budget and the fragment fence — is
    :mod:`repro.spread.frames`'s, not an option (PROTOCOL.md §15,
    "packing")."""

    def __init__(
        self,
        pid: int,
        peers: Dict[int, PeerAddress],
        socket_path: str,
        accelerated: bool = True,
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
        self.fragmenter = Fragmenter()
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
        #: Groupcast header bytes -> its group names, as
        #: :func:`~repro.spread.frames.walk_frames` decoded them: the walk
        #: fills it and :meth:`_resolve_route` reads it, so a header is
        #: decoded once, not again on each route miss.  Names do not
        #: depend on the directory, so it outlives :meth:`_drop_routes`.
        self._groups: Dict[bytes, List[str]] = {}
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
        submit = self.node.submit
        for group in sorted(session.joined):
            for payload, service, _ in self._change_payloads(
                GroupLeave(session.member_name, group)
            ):
                submit(payload=payload, service=service)
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
        order (PROTOCOL.md §15, "packing").  Each run of groupcasts is
        packed by :func:`~repro.spread.frames.pack_groupcasts` into as few
        frames containers as fit; a join or a leave is ordered behind the
        groupcasts before it.  What the read orders is submitted at its
        end — a ``CodecError`` included, so the frames ahead of a
        malformed one are ordered before the session's leaves."""
        pending: List[Payload] = []
        at = 0
        stop = len(frames)
        try:
            while at < stop:
                opcode, body = frames[at]
                if opcode == _OP_GROUPCAST:  # the hot case, tested first
                    at = pack_groupcasts(
                        session.frames_prefix, frames, at, self._headers.parse,
                        self.fragmenter, pending,
                    )
                    continue
                if opcode == ipc.OP_JOIN:
                    group = ipc.unpack_group_op(body)
                    session.joined.add(group)
                    pending += self._change_payloads(GroupJoin(session.member_name, group))
                elif opcode == ipc.OP_LEAVE:
                    group = ipc.unpack_group_op(body)
                    session.joined.discard(group)
                    pending += self._change_payloads(GroupLeave(session.member_name, group))
                else:
                    raise CodecError(f"unexpected client opcode {opcode}")
                at += 1
        finally:
            submit = self.node.submit
            for payload, service, groupcasts in pending:
                submit(payload=payload, service=service)
                if groupcasts:
                    self.containers_sent += 1
                    self.envelopes_packed += groupcasts

    def _change_payloads(self, change: Union[GroupJoin, GroupLeave]) -> List[Payload]:
        """The payloads that order a join or a leave: the envelope whole
        if it fits the fragment chunk size, else its fragments in order."""
        return [
            (piece, DeliveryService.AGREED, 0)
            for piece in self.fragmenter.fragment(change.encode())
        ]

    # ------------------------------------------------------------------
    # Ordered delivery side
    # ------------------------------------------------------------------

    def _ordered_delivery(self, messages: Sequence[DataMessage], config_id: int) -> None:
        """Apply one delivered run: each frames container's groupcasts
        are forwarded, each run of consecutive frames with one route as
        one slice of the container (:func:`~repro.spread.frames.walk_frames`
        takes it apart and skips what it must).  Never raises into the
        ordering pass: an envelope that does not decode is counted and
        skipped — every daemon sees the same bytes, so all skip alike.
        The forwarder reads neither the sender nor the payloads."""
        chunk = self._chunk
        for message in messages:
            container = message.payload
            try:
                if not container or container[0] != ENV_FRAMES:
                    container = self._apply_envelope(container, message)
                    if container is None:
                        continue
                runs, skipped = walk_frames(
                    container, message.service, self._last_header, self._groups
                )
            except CodecError:
                self.envelopes_undecodable += 1
                continue
            if skipped:
                self.envelopes_undecodable += skipped
            for header, start, end, count in runs:
                if header is not self._last_header:
                    route = self._routes.get(header)
                    if route is None:
                        route = self._resolve_route(header)
                    self._last_header = header
                    self._last_route = route
                route = self._last_route
                if route != self._chunk_route:
                    self._cut_chunk()
                    self._chunk_route = route
                if route:
                    chunk.append(container[start:end])
                    self._chunk_count += count
        self._cut_chunk()
        # Bounded like the routes; cleared between runs, never between
        # a walk and the resolves of its headers.
        if len(self._groups) >= ROUTE_MEMO_CAP:
            self._groups.clear()

    def _apply_envelope(
        self, envelope: bytes, message: DataMessage, reassembled: bool = False
    ) -> Optional[bytes]:
        """One envelope that is not a frames container straight off the
        order: a fragment or (``reassembled``) what its fragments made, a
        join, a leave.  Returns the frames container fragments completed,
        for the caller to forward."""
        tag = envelope[0] if envelope else None
        if tag == ENV_FRAGMENT and not reassembled:
            whole = self.reassembler.accept(message.pid, decode_envelope(envelope))
            if whole is not None:
                return self._apply_envelope(whole, message, reassembled=True)
        elif tag == ENV_FRAMES:  # reassembled: a groupcast past one fragment
            return envelope
        elif tag == ENV_JOIN or tag == ENV_LEAVE:
            change = decode_envelope(envelope)
            if isinstance(change, GroupJoin):
                self.directory.apply_join(change.member, change.group)
            else:
                self.directory.apply_leave(change.member, change.group)
            self._notify_views()
        else:
            raise CodecError(f"unexpected envelope tag {tag}")
        return None

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
        its names, as the walk decoded them, resolved in the directory."""
        targets: Set[str] = set()
        for group in self._groups[header]:
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

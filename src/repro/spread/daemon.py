"""The Spread-like daemon: groups, packing, fragmentation, multi-group
multicast over the ordering stack.

Architecture (paper §I): the client-daemon split provides a clean
separation between middleware and application, lets one set of daemons
serve several applications, and enables open-group semantics.  Every
group operation rides the total order, so all daemons apply membership
changes at the same point relative to data messages.
"""

from __future__ import annotations

import asyncio
import os
from typing import Dict, List, Optional, Set

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
from repro.spread.groups import GroupDirectory, qualify
from repro.spread.packing import Packer, unpack_payload
from repro.spread.wire import (
    AppData,
    Fragment,
    GroupJoin,
    GroupLeave,
    decode_envelope,
)
from repro.util.errors import CodecError


class _ClientSession:
    """One connected client, its bounded send queue, and joined groups."""

    def __init__(
        self,
        member_name: str,
        writer: asyncio.StreamWriter,
        window_bytes: int = DEFAULT_CLIENT_WINDOW_BYTES,
        unflushed: Optional[List[ClientSendQueue]] = None,
    ) -> None:
        self.member_name = member_name
        self.writer = writer
        self.queue = ClientSendQueue(writer, window_bytes, unflushed)
        self.joined: Set[str] = set()


class SpreadDaemon:
    """A group-aware daemon on one server."""

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
        self.pid = pid
        self.socket_path = socket_path
        self.tcp_port = tcp_port
        self.client_window_bytes = client_window_bytes
        self.node = RingNode(pid=pid, peers=peers, accelerated=accelerated, **node_kwargs)
        self.node.on_deliver = self._ordered_delivery
        self.node.on_config = self._config_changed
        #: Client queues holding frames of the node's current batch.
        self._unflushed: List[ClientSendQueue] = []
        self.node.on_batch_end = lambda: flush_all(self._unflushed)
        self.directory = GroupDirectory()
        self.packer = Packer(budget=pack_budget)
        self.fragmenter = Fragmenter(chunk_size=pack_budget)
        self.reassembler = FragmentReassembler()
        self._server: Optional[asyncio.AbstractServer] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._sessions: Dict[str, _ClientSession] = {}
        self._client_counter = 0
        self.messages_delivered_to_clients = 0
        self.clients_dropped_slow = 0

    async def start(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        await self.node.start()
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.socket_path
        )
        if self.tcp_port is not None:
            self._tcp_server = await asyncio.start_server(
                self._handle_client, host="127.0.0.1", port=self.tcp_port
            )

    async def stop(self) -> None:
        for server in (self._server, self._tcp_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = None
        self._tcp_server = None
        sessions = list(self._sessions.values())
        self._sessions.clear()
        for session in sessions:
            await session.queue.aclose()
        await self.node.stop()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session: Optional[_ClientSession] = None
        frames = ipc.FrameReader(reader)
        try:
            opcode, body = await frames.next()
            if opcode != ipc.OP_HELLO:
                raise CodecError("client must introduce itself first")
            self._client_counter += 1
            private = ipc.unpack_hello(body) or f"client{self._client_counter}"
            member_name = qualify(private, self.pid)
            if member_name in self._sessions:
                member_name = qualify(f"{private}.{self._client_counter}", self.pid)
            session = _ClientSession(
                member_name, writer, self.client_window_bytes, self._unflushed
            )
            self._sessions[member_name] = session
            session.queue.send(ipc.pack_welcome(member_name))
            flush_all(self._unflushed)
            while True:
                try:
                    opcode, body = await frames.next()
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    # A half-closed or reset connection: the client is
                    # gone (or was dropped for falling behind); clean up
                    # the session like a voluntary disconnect.
                    break
                self._handle_client_frame(session, opcode, body)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # disconnect during the hello handshake
        finally:
            if session is not None:
                self._sessions.pop(session.member_name, None)
                for group in sorted(session.joined):
                    self._submit_envelope(
                        GroupLeave(member=session.member_name, group=group).encode(),
                        DeliveryService.AGREED,
                    )
                await session.queue.drain_and_close()
                if session.queue.dropped_slow:
                    self.clients_dropped_slow += 1
            else:
                writer.close()

    def _handle_client_frame(
        self, session: _ClientSession, opcode: int, body: bytes
    ) -> None:
        if opcode == ipc.OP_JOIN:
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
        elif opcode == ipc.OP_GROUPCAST:
            groups, service, payload = ipc.unpack_groupcast(body)
            envelope = AppData(
                sender=session.member_name, groups=tuple(groups), payload=payload
            ).encode()
            self._submit_envelope(envelope, service)
        else:
            raise CodecError(f"unexpected client opcode {opcode}")

    def _submit_envelope(self, envelope: bytes, service: DeliveryService) -> None:
        """Fragment if oversized, pack if small, then submit in order."""
        for piece in self.fragmenter.fragment(envelope):
            for packet in self.packer.add(piece):
                self.node.submit(payload=packet, service=service)
        # Flush eagerly: packing across client calls only pays off under
        # batching workloads; correctness requires order either way.
        for packet in self.packer.flush():
            self.node.submit(payload=packet, service=service)

    # ------------------------------------------------------------------
    # Ordered delivery side
    # ------------------------------------------------------------------

    def _ordered_delivery(self, message: DataMessage, config_id: int) -> None:
        for envelope_bytes in unpack_payload(message.payload):
            envelope = decode_envelope(envelope_bytes)
            if isinstance(envelope, Fragment):
                whole = self.reassembler.accept(message.pid, envelope)
                if whole is None:
                    continue
                envelope = decode_envelope(whole)
            self._apply_envelope(envelope, message)

    def _apply_envelope(self, envelope, message: DataMessage) -> None:
        if isinstance(envelope, AppData):
            self._deliver_app_data(envelope, message)
        elif isinstance(envelope, GroupJoin):
            self.directory.apply_join(envelope.member, envelope.group)
            self._notify_views()
        elif isinstance(envelope, GroupLeave):
            self.directory.apply_leave(envelope.member, envelope.group)
            self._notify_views()
        else:
            raise CodecError(f"unexpected inner envelope {type(envelope).__name__}")

    def _deliver_app_data(self, envelope: AppData, message: DataMessage) -> None:
        targets: Set[str] = set()
        for group in envelope.groups:
            targets.update(self.directory.members(group))
        frame = None
        for member in sorted(targets):
            session = self._sessions.get(member)
            if session is None:
                continue  # member lives at another daemon
            if frame is None:
                frame = ipc.pack_groupcast(
                    list(envelope.groups), message.service, envelope.payload
                )
            if session.queue.send(frame):
                self.messages_delivered_to_clients += 1

    def _config_changed(self, configuration: Configuration) -> None:
        if configuration.transitional:
            return
        self.directory.apply_configuration(configuration.members)
        self._notify_views()

    def _notify_views(self) -> None:
        for group in self.directory.take_dirty():
            members = list(self.directory.members(group))
            frame = ipc.pack_group_view(group, members)
            # Sorted so the write order to local sessions is the same on
            # every daemon and every run (set iteration is not).
            for member in sorted(set(members)):
                session = self._sessions.get(member)
                if session is not None:
                    session.queue.send(frame)

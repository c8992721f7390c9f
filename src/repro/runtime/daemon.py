"""The daemon-based prototype: a ring node serving local clients.

One daemon runs per server; sending clients inject messages over a unix
socket and receiving clients get every delivered message (paper §IV-A:
"each of the 8 participating servers ran one daemon, one sending client
... and one receiving client").

Client fan-out is byte-bounded: each connection owns a
:class:`~repro.runtime.backpressure.ClientSendQueue`, so a client that
stops reading is disconnected when it falls a window behind rather than
growing the daemon's heap without limit.
"""

from __future__ import annotations

import asyncio
import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.messages import DataMessage
from repro.evs.configuration import Configuration
from repro.runtime import ipc
from repro.runtime.backpressure import (
    DEFAULT_CLIENT_WINDOW_BYTES,
    ClientSendQueue,
    flush_all,
)
from repro.runtime.node import RingNode
from repro.runtime.transport import PeerAddress
from repro.util.errors import CodecError

if TYPE_CHECKING:
    from repro.obs.observer import ProtocolObserver


class ClientListener:
    """A ring node serving local clients: the listener lifecycle every
    daemon shares.  A daemon subclasses this with its own client
    protocol (``_handle_client``), its own delivery, and
    :meth:`_detach_clients`."""

    def __init__(
        self,
        node: RingNode,
        socket_path: str,
        tcp_port: Optional[int],
        client_window_bytes: int,
    ) -> None:
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
        self._server: Optional[asyncio.AbstractServer] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None

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
        """Stop serving: drain client queues, then fail-stop the node."""
        for server in (self._server, self._tcp_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = None
        self._tcp_server = None
        for queue in self._detach_clients():
            await queue.aclose()
        await self.node.stop()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection until it ends."""
        raise NotImplementedError

    def _detach_clients(self) -> List[ClientSendQueue]:
        """Forget every connected client; their queues, for closing."""
        raise NotImplementedError


class DaemonServer(ClientListener):
    """A single-group daemon: relays submissions and fan-outs deliveries."""

    def __init__(
        self,
        pid: int,
        peers: Dict[int, PeerAddress],
        socket_path: str,
        accelerated: bool = True,
        tcp_port: Optional[int] = None,
        observer: Optional["ProtocolObserver"] = None,
        client_window_bytes: int = DEFAULT_CLIENT_WINDOW_BYTES,
        **node_kwargs,
    ) -> None:
        # ``clock=`` (and every other RingNode knob) passes through
        # node_kwargs, so tests can inject a controllable time source
        # into the daemon's membership timeouts.
        node = RingNode(
            pid=pid,
            peers=peers,
            accelerated=accelerated,
            observer=observer,
            **node_kwargs,
        )
        super().__init__(node, socket_path, tcp_port, client_window_bytes)
        node.on_deliver = self._deliver
        node.on_config = self._config_changed
        self._clients: Dict[asyncio.StreamWriter, ClientSendQueue] = {}
        self.messages_relayed = 0
        self.clients_dropped_slow = 0
        #: Clients disconnected for sending a frame that does not decode.
        self.clients_dropped_malformed = 0

    def _detach_clients(self) -> List[ClientSendQueue]:
        queues = list(self._clients.values())
        self._clients.clear()
        return queues

    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        queue = ClientSendQueue(writer, self.client_window_bytes, self._unflushed)
        self._clients[writer] = queue
        frames = ipc.FrameReader(reader)
        ready = frames.ready
        try:
            while True:
                if not ready:
                    try:
                        await frames.fill()
                    except (asyncio.IncompleteReadError, ConnectionError, OSError):
                        break
                opcode, body = ready.popleft()
                if opcode == ipc.OP_SUBMIT:
                    service, payload = ipc.unpack_submit(body)
                    self.node.submit(payload=payload, service=service)
                    self.messages_relayed += 1
                else:
                    raise CodecError(f"unexpected client opcode {opcode}")
        except CodecError:
            # Disconnect by rule: a frame that does not decode ends the
            # connection like any other disconnect (PROTOCOL.md §15).
            self.clients_dropped_malformed += 1
        finally:
            self._clients.pop(writer, None)
            await queue.drain_and_close()
            if queue.dropped_slow:
                self.clients_dropped_slow += 1

    def _broadcast(self, frame: bytes) -> None:
        dead = None
        for writer, queue in self._clients.items():
            if not queue.send(frame) and queue.closing:
                if dead is None:
                    dead = [writer]
                else:
                    dead.append(writer)
        if dead:
            for writer in dead:
                self._clients.pop(writer, None)

    def _deliver(self, messages: Sequence[DataMessage], config_id: int) -> None:
        """One delivered run: its frames, joined, are one send per client."""
        pack_deliver = ipc.pack_deliver
        self._broadcast(
            b"".join(
                [
                    pack_deliver(message.pid, message.seq, message.service, message.payload)
                    for message in messages
                ]
            )
        )

    def _config_changed(self, configuration: Configuration) -> None:
        self._broadcast(
            ipc.pack_config(
                sorted(configuration.members), configuration.transitional
            )
        )

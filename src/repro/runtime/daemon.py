"""The daemon-based prototype: a ring node serving local clients.

One daemon runs per server; sending clients inject messages over a unix
socket and receiving clients get every delivered message (paper §IV-A:
"each of the 8 participating servers ran one daemon, one sending client
... and one receiving client").

Client fan-out is byte-bounded: each connection owns a
:class:`~repro.runtime.backpressure.ClientSendQueue`, so a client that
stops reading is disconnected when it falls a window behind rather than
growing the daemon's heap without limit.

A client connection is an :class:`~repro.runtime.ipc.FrameProtocol`:
its frames are handled in the read's own callback, and a task exists
only for the asynchronous part of a disconnect (writing out what is
queued, then closing).
"""

from __future__ import annotations

import asyncio
import functools
import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

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
    protocol (:meth:`_client_connected`, which installs the connection's
    frame and end handlers), its own delivery, and
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
        #: Disconnects still writing out their queue.
        self._disconnecting: Set[asyncio.Task] = set()
        self.clients_dropped_slow = 0
        #: Clients disconnected for sending a frame that does not decode.
        self.clients_dropped_malformed = 0

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
        """Stop serving: drain client queues, then fail-stop the node."""
        for server in (self._server, self._tcp_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = None
        self._tcp_server = None
        for queue in self._detach_clients():
            await queue.aclose()
        # The disconnects those closes set off, and any still writing out.
        await asyncio.gather(*self._disconnecting)
        await self.node.stop()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    def _client_connected(self, connection: ipc.FrameProtocol) -> None:
        """A client connected: set ``connection.on_frame`` / ``on_end``."""
        raise NotImplementedError

    def _detach_clients(self) -> List[ClientSendQueue]:
        """Forget every connected client; their queues, for closing."""
        raise NotImplementedError

    def _client_gone(self, queue: ClientSendQueue, reason: BaseException) -> None:
        """The synchronous end of a disconnect, once the daemon has
        forgotten the client: count a malformed frame (disconnect by rule,
        PROTOCOL.md §15), then write out the queue and close in a task."""
        if isinstance(reason, CodecError):
            self.clients_dropped_malformed += 1
        task = asyncio.get_running_loop().create_task(self._close_queue(queue))
        self._disconnecting.add(task)
        task.add_done_callback(self._disconnecting.discard)

    async def _close_queue(self, queue: ClientSendQueue) -> None:
        await queue.drain_and_close()
        if queue.dropped_slow:
            self.clients_dropped_slow += 1


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
        self._clients: Dict[ipc.FrameProtocol, ClientSendQueue] = {}
        self.messages_relayed = 0

    def _detach_clients(self) -> List[ClientSendQueue]:
        queues = list(self._clients.values())
        self._clients.clear()
        return queues

    # ------------------------------------------------------------------

    def _client_connected(self, connection: ipc.FrameProtocol) -> None:
        queue = ClientSendQueue(connection, self.client_window_bytes, self._unflushed)
        self._clients[connection] = queue
        connection.on_frame = self._client_frame
        connection.on_end = functools.partial(self._disconnected, connection, queue)

    def _client_frame(self, opcode: int, body: bytes) -> None:
        if opcode != ipc.OP_SUBMIT:
            raise CodecError(f"unexpected client opcode {opcode}")
        service, payload = ipc.unpack_submit(body)
        self.node.submit(payload=payload, service=service)
        self.messages_relayed += 1

    def _disconnected(
        self, connection: ipc.FrameProtocol, queue: ClientSendQueue, reason: BaseException
    ) -> None:
        self._clients.pop(connection, None)
        self._client_gone(queue, reason)

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

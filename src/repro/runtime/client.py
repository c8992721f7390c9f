"""Client library for the daemon-based prototype."""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.core.messages import DeliveryService
from repro.runtime import ipc
from repro.runtime.ipc import Delivery, Endpoint, EndpointSpec
from repro.util.errors import CodecError

#: Event types a client can receive.
ClientEvent = Union[Delivery, Tuple[List[int], bool]]


class DaemonClient:
    """Connects to a daemon at an :data:`~repro.runtime.ipc.Endpoint`.

    ``endpoint`` accepts a :class:`~repro.runtime.ipc.UnixEndpoint`, a
    :class:`~repro.runtime.ipc.TcpEndpoint`, a bare unix socket path, or
    a spec string (``unix://...`` / ``tcp://host:port``).  The paper's
    advice applies: on LANs, co-locate clients with daemons and use the
    unix socket; TCP is for remote clients.
    """

    def __init__(self, endpoint: EndpointSpec) -> None:
        self.endpoint: Endpoint = ipc.parse_endpoint(endpoint)
        #: The connection to the daemon: frames are read from it and
        #: written to it.
        self._connection: Optional[ipc.FrameProtocol] = None

    async def connect(self) -> None:
        self._connection = await self.endpoint.open()

    async def close(self) -> None:
        connection = self._connection
        if connection is not None:
            connection.close()
            try:
                await connection.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._connection = None

    def send(
        self,
        payload: bytes,
        service: DeliveryService = DeliveryService.AGREED,
    ) -> None:
        """Submit one message for totally ordered multicast."""
        if self._connection is None:
            raise RuntimeError("client not connected")
        self._connection.write(ipc.pack_submit(service, payload))

    async def receive(self) -> ClientEvent:
        """Await the next delivery or configuration-change event."""
        connection = self._connection
        if connection is None:
            raise RuntimeError("client not connected")
        # Frames of the last read are served without a coroutine each.
        ready = connection.ready
        if not ready:
            await connection.wait()
        opcode, body = ready.popleft()
        if opcode == ipc.OP_DELIVER:
            return ipc.unpack_deliver(body)
        if opcode == ipc.OP_CONFIG:
            return ipc.unpack_config(body)
        raise CodecError(f"unexpected daemon opcode {opcode}")

    async def receive_messages(self, count: int) -> List[Delivery]:
        """Collect the next ``count`` message deliveries (skipping
        configuration events)."""
        out: List[Delivery] = []
        while len(out) < count:
            event = await self.receive()
            if isinstance(event, Delivery):
                out.append(event)
        return out

"""Client library for the daemon-based prototype."""

from __future__ import annotations

import asyncio
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
        self._frames: Optional[ipc.FrameReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        reader, self._writer = await self.endpoint.open()
        self._frames = ipc.FrameReader(reader)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._frames = None

    def send(
        self,
        payload: bytes,
        service: DeliveryService = DeliveryService.AGREED,
    ) -> None:
        """Submit one message for totally ordered multicast."""
        if self._writer is None:
            raise RuntimeError("client not connected")
        self._writer.write(ipc.pack_submit(service, payload))

    async def receive(self) -> ClientEvent:
        """Await the next delivery or configuration-change event."""
        frames = self._frames
        if frames is None:
            raise RuntimeError("client not connected")
        # Frames of the last read are served without a coroutine each.
        if not frames.ready:
            await frames.fill()
        opcode, body = frames.ready.popleft()
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

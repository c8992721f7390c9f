"""Client library for the Spread-like daemon.

:class:`SpreadClient` is the single-daemon client.  With the multi-ring
layer, group traffic may be sharded across several daemons (one per
ring): :class:`ShardedSpreadClient` holds one :class:`SpreadClient` per
shard, routes ``join``/``leave``/``multicast`` through the
:class:`~repro.multiring.shard_map.ShardMap` transparently, and consumes
deliveries in the deterministic round-robin merge order
(docs/PROTOCOL.md §11).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.core.messages import DeliveryService
from repro.multiring.shard_map import ShardMap
from repro.runtime import ipc
from repro.runtime.ipc import Endpoint, EndpointSpec
from repro.util.errors import CodecError, ConfigurationError


class GroupMessage(NamedTuple):
    """An ordered message delivered to a group member.

    A tuple, not a dataclass: one is built per message per receiving
    client, and :meth:`SpreadClient.receive` builds it with
    ``tuple.__new__`` — no Python ``__init__`` frame.  Field names and
    order, keyword construction, equality, hashing and immutability are
    the frozen dataclass's it replaced.
    """

    groups: Tuple[str, ...]
    service: DeliveryService
    payload: bytes


_new_tuple = tuple.__new__


@dataclass(frozen=True)
class GroupView:
    """A group membership view notification."""

    group: str
    members: Tuple[str, ...]


ClientEvent = Union[GroupMessage, GroupView]


class SpreadClient:
    """Connects to a Spread-like daemon at an
    :data:`~repro.runtime.ipc.Endpoint`.

    ``endpoint`` accepts a :class:`~repro.runtime.ipc.UnixEndpoint`, a
    :class:`~repro.runtime.ipc.TcpEndpoint`, a bare unix socket path, or
    a spec string (``unix://...`` / ``tcp://host:port``).

    Usage::

        client = SpreadClient(path, name="alice")
        await client.connect()
        await client.join("chat")
        client.multicast(["chat"], b"hello", DeliveryService.AGREED)
        event = await client.receive()
    """

    def __init__(self, endpoint: EndpointSpec, name: str = "") -> None:
        self.endpoint: Endpoint = ipc.parse_endpoint(endpoint)
        self.private_name = name
        self.member_name: Optional[str] = None
        #: The connection to the daemon: frames are read from it and
        #: written to it.
        self._connection: Optional[ipc.FrameProtocol] = None
        #: Headers of received groupcasts, decoded once each.
        self._received_headers = ipc.GroupcastHeaders()
        #: ``(groups, service)`` -> the packed header :meth:`multicast`
        #: sends for it (bounded like the receive side).
        self._sent_headers: Dict[Tuple[Tuple[str, ...], DeliveryService], bytes] = {}

    async def connect(self) -> str:
        """Connect and return the daemon-qualified member name."""
        connection = self._connection = await self.endpoint.open()
        connection.write(ipc.pack_hello(self.private_name))
        if not connection.ready:
            await connection.wait()
        opcode, body = connection.ready.popleft()
        if opcode != ipc.OP_WELCOME:
            raise CodecError(f"expected welcome, got opcode {opcode}")
        self.member_name = ipc.unpack_welcome(body)
        return self.member_name

    async def close(self) -> None:
        connection = self._connection
        if connection is not None:
            connection.close()
            try:
                await connection.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._connection = None

    def _require(self) -> ipc.FrameProtocol:
        if self._connection is None:
            raise RuntimeError("client not connected")
        return self._connection

    async def join(self, group: str) -> None:
        self._require().write(ipc.pack_group_op(ipc.OP_JOIN, group))

    async def leave(self, group: str) -> None:
        self._require().write(ipc.pack_group_op(ipc.OP_LEAVE, group))

    def multicast(
        self,
        groups: List[str],
        payload: bytes,
        service: DeliveryService = DeliveryService.AGREED,
    ) -> None:
        """Send one message to every member of the listed groups.

        Open-group semantics: the caller need not be a member of any
        target group.
        """
        key = (tuple(groups), service)
        header = self._sent_headers.get(key)
        if header is None:
            header = ipc.groupcast_header(groups, service)
            if len(self._sent_headers) >= ipc.HEADER_MEMO_CAP:
                self._sent_headers.clear()
            self._sent_headers[key] = header
        self._require().write(ipc.pack_frame(ipc.OP_GROUPCAST, header + payload))

    async def receive(self) -> ClientEvent:
        connection = self._connection
        if connection is None:
            raise RuntimeError("client not connected")
        # Frames of the last read are served without a coroutine each.
        ready = connection.ready
        if not ready:
            await connection.wait()
        opcode, body = ready.popleft()
        if opcode == ipc.OP_GROUPCAST:
            groups, service, end = self._received_headers.parse(body)
            return _new_tuple(GroupMessage, (groups, service, body[end:]))
        if opcode == ipc.OP_GROUP_VIEW:
            group, members = ipc.unpack_group_view(body)
            return GroupView(group=group, members=tuple(members))
        raise CodecError(f"unexpected daemon opcode {opcode}")

    async def receive_messages(self, count: int) -> List[GroupMessage]:
        out: List[GroupMessage] = []
        while len(out) < count:
            event = await self.receive()
            if isinstance(event, GroupMessage):
                out.append(event)
        return out

    async def wait_for_view(self, group: str, size: int, timeout: float = 10.0) -> GroupView:
        """Wait until a view for ``group`` with ``size`` members arrives."""

        async def _wait() -> GroupView:
            while True:
                event = await self.receive()
                if isinstance(event, GroupView) and event.group == group and len(event.members) == size:
                    return event

        return await asyncio.wait_for(_wait(), timeout)


class ShardedSpreadClient:
    """One logical client across ``N`` sharded Spread daemons.

    Holds a :class:`SpreadClient` per ring and routes every group
    operation through the :class:`~repro.multiring.shard_map.ShardMap`,
    so application code keeps the familiar join/leave/multicast/receive
    surface while group traffic is ordered on independent rings:

    * ``join``/``leave`` go only to the daemon whose ring owns the
      group.
    * ``multicast`` partitions the target groups by ring and sends one
      groupcast per involved ring (a cross-shard multicast is therefore
      N independent ordered messages, not one atomic event — see
      docs/PROTOCOL.md §11 for what cross-shard ordering does and does
      not promise).
    * ``receive`` consumes ordered messages in the deterministic
      round-robin merge order over the delivery streams of the rings
      its joined groups live on (in ring-index order, the rings
      :meth:`~repro.multiring.cluster.MultiRingCluster.merged_stream`
      merges), so every sharded client subscribed to the same groups
      observes the same interleaving.  Views pass through without
      consuming the current ring's turn (they are per-ring metadata,
      not part of the merged order).

    For tests and embedding, pre-built per-shard clients can be
    injected via ``clients=``; otherwise one :class:`SpreadClient` is
    created per entry in ``endpoints``.
    """

    def __init__(
        self,
        endpoints: Optional[Sequence[EndpointSpec]] = None,
        name: str = "",
        *,
        shard_map: Optional[ShardMap] = None,
        clients: Optional[Sequence[SpreadClient]] = None,
    ) -> None:
        if clients is not None:
            self._clients: List[SpreadClient] = list(clients)
        elif endpoints is not None:
            self._clients = [SpreadClient(spec, name=name) for spec in endpoints]
        else:
            raise ConfigurationError(
                "ShardedSpreadClient needs endpoints= or clients="
            )
        if not self._clients:
            raise ConfigurationError("ShardedSpreadClient needs at least one shard")
        self.shard_map = (
            shard_map if shard_map is not None else ShardMap(len(self._clients))
        )
        if self.shard_map.num_rings != len(self._clients):
            raise ConfigurationError(
                f"shard map covers {self.shard_map.num_rings} rings but "
                f"{len(self._clients)} shard connections were given"
            )
        self.private_name = name
        self._joined: Set[str] = set()
        self._turn = 0

    def shard_of(self, group: str) -> int:
        """The ring (shard) that orders ``group``."""
        return self.shard_map.shard_of(group)

    def client_for(self, group: str) -> SpreadClient:
        """The per-shard client connected to the daemon owning ``group``."""
        return self._clients[self.shard_map.shard_of(group)]

    async def connect(self) -> Tuple[str, ...]:
        """Connect every shard; returns the per-shard member names."""
        return tuple([await client.connect() for client in self._clients])

    async def close(self) -> None:
        for client in self._clients:
            await client.close()

    async def join(self, group: str) -> None:
        await self.client_for(group).join(group)
        self._joined.add(group)

    async def leave(self, group: str) -> None:
        await self.client_for(group).leave(group)
        self._joined.discard(group)

    def multicast(
        self,
        groups: List[str],
        payload: bytes,
        service: DeliveryService = DeliveryService.AGREED,
    ) -> None:
        """Send to every member of the listed groups, one send per ring.

        Groups are partitioned by owning ring; groups sharing a ring
        still travel in a single groupcast (delivered once per member,
        exactly like the single-daemon client).
        """
        for ring, ring_groups in self.shard_map.partition(groups).items():
            self._clients[ring].multicast(list(ring_groups), payload, service)

    async def receive(self) -> ClientEvent:
        """Next event in the deterministic cross-shard merge order.

        Turns rotate over the rings that own a joined group, so a ring
        this client has no group on never blocks it.  Blocks on the ring
        whose turn it is; a :class:`GroupMessage` advances the turn to
        the next ring, a :class:`GroupView` does not (views are not part
        of the merged total order).  With a single shard this
        degenerates to :meth:`SpreadClient.receive`.
        """
        rings = self.shard_map.rings_for(self._joined)
        if not rings:
            raise ConfigurationError("receive before any join: no group to wait on")
        event = await self._clients[rings[self._turn % len(rings)]].receive()
        if isinstance(event, GroupMessage):
            self._turn = (self._turn + 1) % len(rings)
        return event

    async def receive_messages(self, count: int) -> List[GroupMessage]:
        out: List[GroupMessage] = []
        while len(out) < count:
            event = await self.receive()
            if isinstance(event, GroupMessage):
                out.append(event)
        return out

    async def wait_for_view(self, group: str, size: int, timeout: float = 10.0) -> GroupView:
        """Wait on the owning shard for a ``group`` view of ``size`` members."""
        return await self.client_for(group).wait_for_view(group, size, timeout)

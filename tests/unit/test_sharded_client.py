"""Unit tests for the shard-aware Spread client surface.

The per-shard connections are stubbed: these tests pin the *routing*
and *merge-order* contract of :class:`ShardedSpreadClient`, not the
daemon IPC (covered by the integration suite).
"""

import asyncio

import pytest

from repro.core.messages import DeliveryService
from repro.multiring import ShardMap
from repro.spread import ShardedSpreadClient
from repro.spread.client_api import GroupMessage, GroupView
from repro.util.errors import ConfigurationError


class StubShardClient:
    """Scripted stand-in for one per-shard SpreadClient."""

    def __init__(self, events=()):
        self.events = list(events)
        self.sent = []
        self.ops = []
        self.member_name = None
        self.closed = False

    async def connect(self):
        self.member_name = "stub#0"
        return self.member_name

    async def close(self):
        self.closed = True

    async def join(self, group):
        self.ops.append(("join", group))

    async def leave(self, group):
        self.ops.append(("leave", group))

    def multicast(self, groups, payload, service=DeliveryService.AGREED):
        self.sent.append((tuple(groups), payload, service))

    async def receive(self):
        if not self.events:
            # A daemon with nothing to deliver: the read never returns.
            await asyncio.Event().wait()
        return self.events.pop(0)


def message(group, payload):
    return GroupMessage(
        groups=(group,), service=DeliveryService.AGREED, payload=payload
    )


def make_client(events_per_shard, assignments=None):
    stubs = [StubShardClient(events) for events in events_per_shard]
    shard_map = ShardMap(len(stubs), assignments=assignments)
    return ShardedSpreadClient(clients=stubs, shard_map=shard_map), stubs


def test_join_and_leave_route_to_owning_shard():
    client, stubs = make_client([[], []], assignments={"a": 0, "b": 1})
    asyncio.run(client.join("a"))
    asyncio.run(client.join("b"))
    asyncio.run(client.leave("b"))
    assert stubs[0].ops == [("join", "a")]
    assert stubs[1].ops == [("join", "b"), ("leave", "b")]


def test_multicast_partitions_by_ring_one_send_per_ring():
    client, stubs = make_client(
        [[], []], assignments={"a": 0, "b": 1, "c": 0}
    )
    client.multicast(["a", "b", "c"], b"x")
    # Groups sharing a ring travel in a single groupcast.
    assert stubs[0].sent == [(("a", "c"), b"x", DeliveryService.AGREED)]
    assert stubs[1].sent == [(("b",), b"x", DeliveryService.AGREED)]


def test_receive_merges_round_robin_and_views_pass_through():
    client, _ = make_client(
        [
            [message("a", b"a0"), message("a", b"a1")],
            [
                GroupView(group="b", members=("m#1",)),
                message("b", b"b0"),
                message("b", b"b1"),
            ],
        ],
        assignments={"a": 0, "b": 1},
    )

    async def drain():
        await client.join("a")
        await client.join("b")
        return [await client.receive() for _ in range(5)]

    events = asyncio.run(drain())
    payloads = [
        event.payload if isinstance(event, GroupMessage) else "view"
        for event in events
    ]
    # Views do not consume the ring's turn; messages alternate by ring.
    assert payloads == [b"a0", "view", b"b0", b"a1", b"b1"]


def test_receive_messages_filters_views():
    client, _ = make_client(
        [
            [message("a", b"a0")],
            [GroupView(group="b", members=()), message("b", b"b0")],
        ],
        assignments={"a": 0, "b": 1},
    )
    asyncio.run(client.join("a"))
    asyncio.run(client.join("b"))
    out = asyncio.run(client.receive_messages(2))
    assert [m.payload for m in out] == [b"a0", b"b0"]


def test_receive_skips_rings_without_a_joined_group():
    # Group a is on ring 0; ring 1 has nothing for this client and
    # never delivers, so waiting on it would stall the merge.
    client, _ = make_client(
        [[message("a", b"a0"), message("a", b"a1"), message("a", b"a2")], []],
        assignments={"a": 0, "b": 1},
    )

    async def drain():
        await client.join("a")
        return await asyncio.wait_for(client.receive_messages(3), timeout=0.5)

    assert [m.payload for m in asyncio.run(drain())] == [b"a0", b"a1", b"a2"]


def test_leave_takes_a_ring_out_of_the_rotation():
    client, _ = make_client(
        [[message("a", b"a0"), message("a", b"a1")], [message("b", b"b0")]],
        assignments={"a": 0, "b": 1},
    )

    async def drain():
        await client.join("a")
        await client.join("b")
        first = await client.receive_messages(2)
        await client.leave("b")
        return first + await asyncio.wait_for(client.receive_messages(1), timeout=0.5)

    assert [m.payload for m in asyncio.run(drain())] == [b"a0", b"b0", b"a1"]


def test_receive_before_any_join_is_refused():
    client, _ = make_client([[message("a", b"a0")], []])
    with pytest.raises(ConfigurationError):
        asyncio.run(client.receive())


def test_connect_and_close_fan_out():
    client, stubs = make_client([[], []])
    names = asyncio.run(client.connect())
    assert names == ("stub#0", "stub#0")
    asyncio.run(client.close())
    assert all(stub.closed for stub in stubs)


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        ShardedSpreadClient()
    with pytest.raises(ConfigurationError):
        ShardedSpreadClient(clients=[])
    with pytest.raises(ConfigurationError):
        # Map covers 3 rings, only 2 connections given.
        ShardedSpreadClient(
            clients=[StubShardClient(), StubShardClient()],
            shard_map=ShardMap(3),
        )


def test_single_shard_degenerates_to_plain_order():
    client, _ = make_client([[message("a", b"0"), message("a", b"1")]])
    asyncio.run(client.join("a"))
    out = asyncio.run(client.receive_messages(2))
    assert [m.payload for m in out] == [b"0", b"1"]
    assert client.shard_of("anything") == 0

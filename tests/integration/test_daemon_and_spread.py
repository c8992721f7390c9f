"""Integration tests: the daemon/client architecture and the Spread layer."""

import asyncio
import os
import tempfile

import pytest

from repro.core.messages import DeliveryService
from repro.runtime import ipc
from repro.spread.client_api import SpreadClient
from repro.spread.daemon import SpreadDaemon
from repro.runtime.ports import ephemeral_ring_addresses
from tests.integration.test_runtime import FAST_TIMEOUTS, wait_until
from tests.unit.test_ipc import next_frame


async def start_daemons(n, tmpdir, **kwargs):
    peers = ephemeral_ring_addresses(range(n))
    daemons = [
        SpreadDaemon(
            pid,
            peers,
            os.path.join(tmpdir, f"daemon{pid}.sock"),
            timeouts=FAST_TIMEOUTS,
            **kwargs,
        )
        for pid in range(n)
    ]
    for daemon in daemons:
        await daemon.start()
    formed = await wait_until(
        lambda: all(len(d.node.members) == n for d in daemons)
    )
    assert formed, [d.node.members for d in daemons]
    return daemons


async def connect_all(daemons, group):
    """One client per daemon, each a member of ``group``, every view in."""
    clients = [
        SpreadClient(d.socket_path, name=f"c{i}") for i, d in enumerate(daemons)
    ]
    for client in clients:
        await client.connect()
        await client.join(group)
    for client in clients:
        await client.wait_for_view(group, len(clients))
    return clients


async def hello_then(path, garbage):
    """A raw client that is welcomed, then writes ``garbage``; returns
    once the daemon has closed the connection."""
    raw = await ipc.UnixEndpoint(path).open()
    raw.write(ipc.pack_hello("bad"))
    opcode, _body = await next_frame(raw)
    assert opcode == ipc.OP_WELCOME
    raw.write(garbage)
    with pytest.raises(asyncio.IncompleteReadError):
        while True:  # views, then the daemon's close
            await asyncio.wait_for(next_frame(raw), 5.0)
    raw.close()


class TestDaemonPrototype:
    def test_client_submissions_reach_all_receivers(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                daemons = await start_daemons(3, tmp)
                try:
                    clients = await connect_all(daemons, "all")
                    for index, client in enumerate(clients):
                        client.multicast(["all"], f"m{index}".encode())
                    for client in clients:
                        messages = await asyncio.wait_for(
                            client.receive_messages(3), 10
                        )
                        payloads = sorted(m.payload for m in messages)
                        assert payloads == [b"m0", b"m1", b"m2"]
                    for client in clients:
                        await client.close()
                finally:
                    for daemon in daemons:
                        await daemon.stop()

        asyncio.run(scenario())

    def test_same_total_order_at_every_client(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                daemons = await start_daemons(3, tmp)
                try:
                    clients = await connect_all(daemons, "all")
                    for burst in range(5):
                        for index, client in enumerate(clients):
                            client.multicast(
                                ["all"], f"{index}:{burst}".encode(), DeliveryService.AGREED
                            )
                    logs = []
                    for client in clients:
                        messages = await asyncio.wait_for(
                            client.receive_messages(15), 10
                        )
                        logs.append([m.payload for m in messages])
                    assert logs[0] == logs[1] == logs[2]
                    assert len(set(logs[0])) == 15
                    for client in clients:
                        await client.close()
                finally:
                    for daemon in daemons:
                        await daemon.stop()

        asyncio.run(scenario())


    def test_malformed_submit_disconnects_that_client_only(self):
        """A retired opcode (1, the old submit), an empty groupcast body
        and a service byte that names no service each end their
        connection by rule — counted, nothing thrown at the event loop —
        while another client keeps being served."""

        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                daemons = await start_daemons(1, tmp)
                loop_errors = []
                asyncio.get_running_loop().set_exception_handler(
                    lambda loop, context: loop_errors.append(context)
                )
                try:
                    (steady,) = await connect_all(daemons, "g")
                    for garbage in (
                        ipc.pack_frame(1, b"\x01payload"),
                        ipc.pack_frame(ipc.OP_GROUPCAST, b""),
                        ipc.pack_frame(ipc.OP_GROUPCAST, b"\x09\x01\x00\x01gpayload"),
                    ):
                        await hello_then(daemons[0].socket_path, garbage)
                    assert daemons[0].clients_dropped_malformed == 3
                    steady.multicast(["g"], b"still here")
                    (message,) = await asyncio.wait_for(steady.receive_messages(1), 10)
                    assert message.payload == b"still here"
                    assert loop_errors == []
                    await steady.close()
                finally:
                    for daemon in daemons:
                        await daemon.stop()

        asyncio.run(scenario())


    def test_oversized_submit_disconnects_that_client_only(self):
        """A frame header announcing more than ``MAX_FRAME`` bytes is
        refused before its body arrives (PROTOCOL.md §15): that client is
        closed and counted, and the ring keeps ordering everyone else's
        messages."""

        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                daemons = await start_daemons(2, tmp)
                try:
                    clients = await connect_all(daemons, "g")
                    await hello_then(
                        daemons[0].socket_path,
                        ipc.FRAME_HEADER.pack(ipc.OP_GROUPCAST, ipc.MAX_FRAME + 1),
                    )
                    assert daemons[0].clients_dropped_malformed == 1
                    clients[0].multicast(["g"], b"still ordering")
                    for client in clients:
                        (message,) = await asyncio.wait_for(
                            client.receive_messages(1), 10
                        )
                        assert message.payload == b"still ordering"
                        await client.close()
                    for daemon in daemons:
                        assert daemon.node.transport.datagrams_send_dropped == 0
                finally:
                    for daemon in daemons:
                        await daemon.stop()

        asyncio.run(scenario())


class TestSpreadSystem:
    def test_groups_views_and_open_group_send(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                daemons = await start_daemons(3, tmp)
                try:
                    alice = SpreadClient(daemons[0].socket_path, name="alice")
                    bob = SpreadClient(daemons[1].socket_path, name="bob")
                    carol = SpreadClient(daemons[2].socket_path, name="carol")
                    assert await alice.connect() == "alice#0"
                    await bob.connect()
                    await carol.connect()
                    await alice.join("chat")
                    await bob.join("chat")
                    view = await alice.wait_for_view("chat", 2)
                    assert set(view.members) == {"alice#0", "bob#1"}
                    # open-group: carol sends without joining
                    carol.multicast(["chat"], b"hello")
                    for client in (alice, bob):
                        (message,) = await asyncio.wait_for(
                            client.receive_messages(1), 10
                        )
                        assert message.payload == b"hello"
                        assert message.groups == ("chat",)
                    for client in (alice, bob, carol):
                        await client.close()
                finally:
                    for daemon in daemons:
                        await daemon.stop()

        asyncio.run(scenario())

    def test_multigroup_multicast_delivered_once_per_member(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                daemons = await start_daemons(2, tmp)
                try:
                    alice = SpreadClient(daemons[0].socket_path, name="alice")
                    bob = SpreadClient(daemons[1].socket_path, name="bob")
                    await alice.connect()
                    await bob.connect()
                    await alice.join("g1")
                    await alice.join("g2")
                    await bob.join("g2")
                    await alice.wait_for_view("g2", 2)
                    bob.multicast(["g1", "g2"], b"multi")
                    (message,) = await asyncio.wait_for(alice.receive_messages(1), 10)
                    assert message.groups == ("g1", "g2")
                    # alice is in both target groups but receives one copy;
                    # send another message to prove no duplicate arrived
                    bob.multicast(["g2"], b"next")
                    (message2,) = await asyncio.wait_for(alice.receive_messages(1), 10)
                    assert message2.payload == b"next"
                    await alice.close()
                    await bob.close()
                finally:
                    for daemon in daemons:
                        await daemon.stop()

        asyncio.run(scenario())

    def test_large_message_fragmentation_roundtrip(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                daemons = await start_daemons(2, tmp)
                try:
                    alice = SpreadClient(daemons[0].socket_path, name="alice")
                    bob = SpreadClient(daemons[1].socket_path, name="bob")
                    await alice.connect()
                    await bob.connect()
                    await bob.join("bulk")
                    await bob.wait_for_view("bulk", 1)
                    big = bytes(range(256)) * 64  # 16 KiB
                    alice.multicast(["bulk"], big, DeliveryService.SAFE)
                    (message,) = await asyncio.wait_for(bob.receive_messages(1), 10)
                    assert message.payload == big
                    await alice.close()
                    await bob.close()
                finally:
                    for daemon in daemons:
                        await daemon.stop()

        asyncio.run(scenario())

    def test_client_disconnect_leaves_groups(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                daemons = await start_daemons(2, tmp)
                try:
                    alice = SpreadClient(daemons[0].socket_path, name="alice")
                    bob = SpreadClient(daemons[1].socket_path, name="bob")
                    await alice.connect()
                    await bob.connect()
                    await alice.join("room")
                    await bob.join("room")
                    await bob.wait_for_view("room", 2)
                    await alice.close()
                    view = await bob.wait_for_view("room", 1)
                    assert view.members == ("bob#1",)
                    await bob.close()
                finally:
                    for daemon in daemons:
                        await daemon.stop()

        asyncio.run(scenario())

    def test_ordered_group_membership_is_identical_across_daemons(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                daemons = await start_daemons(3, tmp)
                try:
                    clients = [
                        SpreadClient(d.socket_path, name=f"c{i}")
                        for i, d in enumerate(daemons)
                    ]
                    for client in clients:
                        await client.connect()
                        await client.join("shared")
                    for client in clients:
                        await client.wait_for_view("shared", 3)
                    snapshots = [d.directory.members("shared") for d in daemons]
                    assert snapshots[0] == snapshots[1] == snapshots[2]
                    for client in clients:
                        await client.close()
                finally:
                    for daemon in daemons:
                        await daemon.stop()

        asyncio.run(scenario())

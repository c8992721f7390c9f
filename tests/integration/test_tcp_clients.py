"""Integration tests for remote (TCP) clients.

Paper §III-E: "Spread also supports remote clients that connect via
TCP, but this is not recommended for local area networks, where it is
best to co-locate Spread daemons and clients."
"""

import asyncio
import os
import tempfile

import pytest

from repro.core.messages import DeliveryService
from repro.spread.client_api import SpreadClient
from repro.spread.daemon import SpreadDaemon
from repro.runtime.ports import ephemeral_ring_addresses, reserve_tcp_port
from tests.integration.test_runtime import FAST_TIMEOUTS, wait_until


def test_client_constructor_validation():
    with pytest.raises(TypeError):
        SpreadClient()
    with pytest.raises(TypeError):
        SpreadClient(name="no-endpoint")


def test_tcp_client_sends_and_receives():
    async def scenario():
        with tempfile.TemporaryDirectory() as tmp:
            peers = ephemeral_ring_addresses(range(2))
            tcp_ports = [reserve_tcp_port(), reserve_tcp_port()]
            daemons = [
                SpreadDaemon(
                    pid,
                    peers,
                    os.path.join(tmp, f"d{pid}.sock"),
                    timeouts=FAST_TIMEOUTS,
                    tcp_port=tcp_ports[pid],
                )
                for pid in range(2)
            ]
            for daemon in daemons:
                await daemon.start()
            try:
                assert await wait_until(
                    lambda: all(len(d.node.members) == 2 for d in daemons)
                )
                remote = SpreadClient(("127.0.0.1", tcp_ports[0]))
                local = SpreadClient(daemons[1].socket_path)
                await remote.connect()
                await local.connect()
                await remote.join("all")
                await local.join("all")
                await remote.wait_for_view("all", 2)
                await local.wait_for_view("all", 2)
                remote.multicast(["all"], b"from-remote", DeliveryService.SAFE)
                (delivery,) = await asyncio.wait_for(local.receive_messages(1), 10)
                assert delivery.payload == b"from-remote"
                assert delivery.service is DeliveryService.SAFE
                (echo,) = await asyncio.wait_for(remote.receive_messages(1), 10)
                assert echo.payload == b"from-remote"
                await remote.close()
                await local.close()
            finally:
                for daemon in daemons:
                    await daemon.stop()

    asyncio.run(scenario())


def test_tcp_spread_client_full_group_flow():
    async def scenario():
        with tempfile.TemporaryDirectory() as tmp:
            peers = ephemeral_ring_addresses(range(2))
            tcp_port = reserve_tcp_port()
            daemons = [
                SpreadDaemon(
                    pid,
                    peers,
                    os.path.join(tmp, f"d{pid}.sock"),
                    timeouts=FAST_TIMEOUTS,
                    tcp_port=tcp_port if pid == 0 else None,
                )
                for pid in range(2)
            ]
            for daemon in daemons:
                await daemon.start()
            try:
                assert await wait_until(
                    lambda: all(len(d.node.members) == 2 for d in daemons)
                )
                remote = SpreadClient(("127.0.0.1", tcp_port), name="remote")
                local = SpreadClient(daemons[1].socket_path, name="local")
                assert await remote.connect() == "remote#0"
                await local.connect()
                await remote.join("wan")
                await local.join("wan")
                view = await remote.wait_for_view("wan", 2)
                assert set(view.members) == {"remote#0", "local#1"}
                local.multicast(["wan"], b"hello remote")
                (message,) = await asyncio.wait_for(remote.receive_messages(1), 10)
                assert message.payload == b"hello remote"
                await remote.close()
                await local.close()
            finally:
                for daemon in daemons:
                    await daemon.stop()

    asyncio.run(scenario())

"""Self-tests for the tripwires in conftest.py."""

import asyncio
import contextlib
import random

import pytest

from repro.runtime.ports import GRANTED_PORTS, reserve_tcp_port, reserve_udp_port

#: The literal ports the tripwire self-tests bind.
UDP_PORT = 54321
TCP_PORT = 54322


@contextlib.contextmanager
def hard_coded(*ports):
    """Bind ``ports`` as literals, whatever the session granted before.

    ``GRANTED_PORTS`` accumulates every kernel-assigned port of the
    session, so an earlier test may have been handed one of these
    numbers and the guard would wave the literal through.  Take them
    out of the set for the block and put back the ones that were in it.
    """
    granted = [port for port in ports if port in GRANTED_PORTS]
    GRANTED_PORTS.difference_update(ports)
    try:
        yield
    finally:
        GRANTED_PORTS.update(granted)


def test_unseeded_global_draw_trips_the_guard():
    with pytest.raises(pytest.fail.Exception, match="without seeding"):
        random.random()


def test_unseeded_choice_trips_the_guard():
    with pytest.raises(pytest.fail.Exception, match="random.choice"):
        random.choice([1, 2, 3])


def test_seeding_disarms_the_guard_for_the_test():
    random.seed(1234)
    value = random.random()
    assert 0.0 <= value < 1.0
    # Seeded draws are reproducible — the point of requiring the seed.
    random.seed(1234)
    assert random.random() == value


def test_explicit_rng_instances_are_unaffected():
    rng = random.Random(7)
    assert rng.random() == random.Random(7).random()


def test_guard_restores_global_state_between_tests():
    # The guard snapshots and restores the global generator around each
    # test, so a seeded test cannot leak state into the next one.
    random.seed(0)
    random.random()  # perturb; the fixture must undo this afterwards


def bind_udp_literal():
    async def scenario():
        loop = asyncio.get_running_loop()
        await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, local_addr=("127.0.0.1", UDP_PORT)
        )

    with hard_coded(UDP_PORT):
        asyncio.run(scenario())


class TestHardcodedPortTripwire:
    def test_hardcoded_udp_bind_trips(self):
        with pytest.raises(pytest.fail.Exception, match="hard-coded port"):
            bind_udp_literal()

    def test_hardcoded_tcp_listen_trips(self):
        async def scenario():
            await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=TCP_PORT
            )

        with pytest.raises(pytest.fail.Exception, match="hard-coded port"):
            with hard_coded(TCP_PORT):
                asyncio.run(scenario())

    def test_a_literal_trips_even_if_the_kernel_granted_it_earlier(self):
        # An earlier test in the session was handed UDP_PORT by
        # reserve_udp_port: the literal must trip all the same.
        earlier = UDP_PORT in GRANTED_PORTS
        GRANTED_PORTS.add(UDP_PORT)
        try:
            with pytest.raises(pytest.fail.Exception, match="hard-coded port"):
                bind_udp_literal()
            assert UDP_PORT in GRANTED_PORTS
        finally:
            if not earlier:
                GRANTED_PORTS.discard(UDP_PORT)

    def test_port_zero_is_allowed(self):
        async def scenario():
            transport, _ = await asyncio.get_running_loop().create_datagram_endpoint(
                asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0)
            )
            transport.close()

        asyncio.run(scenario())

    def test_reserved_ports_are_allowed(self):
        async def scenario():
            udp = reserve_udp_port()
            transport, _ = await asyncio.get_running_loop().create_datagram_endpoint(
                asyncio.DatagramProtocol, local_addr=("127.0.0.1", udp)
            )
            transport.close()
            tcp = reserve_tcp_port()
            server = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=tcp
            )
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_unix_servers_are_unaffected(self, tmp_path):
        async def scenario():
            server = await asyncio.start_unix_server(
                lambda r, w: None, path=str(tmp_path / "guard.sock")
            )
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

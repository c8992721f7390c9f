"""Unit tests for runtime components that don't need sockets."""

import asyncio
from dataclasses import replace

import pytest

from repro.core.codec import TYPE_DATA, TYPE_DATA_BATCH, encode_data
from repro.core.config import ProtocolConfig
from repro.membership.codec import encode_any
from repro.membership.messages import RecoveredMessage
from repro.runtime.node import (
    MAX_PAYLOAD,
    RUNTIME_PROTOCOL,
    RUNTIME_TIMEOUTS,
    RingNode,
)
from repro.runtime.ports import GRANTED_PORTS, ephemeral_ring_addresses
from repro.runtime.transport import (
    DATAGRAM_BUDGET,
    MAX_UDP_PAYLOAD,
    UdpTransport,
    local_ring_addresses,
)
from tests.conftest import data_message
from tests.unit.test_conftest_guard import hard_coded


class TestAddresses:
    def test_ports_distinct_per_pid(self):
        peers = local_ring_addresses(range(4), base_port=40000)
        ports = set()
        for peer in peers.values():
            ports.add(peer.data_port)
            ports.add(peer.token_port)
        assert len(ports) == 8

    def test_data_and_token_ports_adjacent(self):
        peers = local_ring_addresses([3], base_port=40000)
        assert peers[3].token_port == peers[3].data_port + 1

    def test_ephemeral_ports_never_repeat_within_one_call(self):
        # Reservations are held open until the whole map is assigned;
        # released one at a time, the kernel may grant a port twice.
        pids = range(16)
        for _ in range(25):
            peers = ephemeral_ring_addresses(pids)
            ports = [
                port
                for peer in peers.values()
                for port in (peer.data_port, peer.token_port)
            ]
            assert len(set(ports)) == 2 * len(pids)
            assert set(ports) <= GRANTED_PORTS


class TestTransportValidation:
    def test_own_pid_must_be_in_peers(self):
        peers = local_ring_addresses(range(2), base_port=40100)
        with pytest.raises(ValueError):
            UdpTransport(pid=9, peers=peers, on_data=lambda d: None,
                         on_token=lambda d: None)

    def test_invalid_loss_rate_rejected(self):
        peers = local_ring_addresses(range(2), base_port=40100)
        with pytest.raises(ValueError):
            UdpTransport(pid=0, peers=peers, on_data=lambda d: None,
                         on_token=lambda d: None, loss_rate=1.0)

    def test_send_before_start_raises(self):
        peers = local_ring_addresses(range(2), base_port=40100)
        transport = UdpTransport(pid=0, peers=peers, on_data=lambda d: None,
                                 on_token=lambda d: None)
        with pytest.raises(RuntimeError):
            transport.multicast_data(b"x")

    def test_loss_model_drops_incoming_data(self):
        received = []
        peers = local_ring_addresses(range(2), base_port=40100)
        transport = UdpTransport(
            pid=0, peers=peers, on_data=received.append,
            on_token=lambda d: None, loss_rate=0.9999999, loss_seed=1,
        )
        transport._receive_data(b"frame")
        assert received == []
        assert transport.datagrams_dropped == 1


    def test_refused_send_is_a_counted_lost_datagram_not_an_exception(self):
        class FullSocket:
            def sendto(self, payload, address):
                raise BlockingIOError(11, "send buffer full")

        peers = local_ring_addresses(range(3), base_port=40100)
        transport = UdpTransport(pid=0, peers=peers, on_data=lambda d: None,
                                 on_token=lambda d: None)
        transport._data_sock = transport._token_sock = FullSocket()
        transport._data_peers = [("127.0.0.1", 1), ("127.0.0.1", 2)]
        transport._token_peers = {1: ("127.0.0.1", 3)}
        transport.multicast_data(b"data")
        transport.send_token(b"token", 1)
        assert transport.datagrams_send_dropped == 3
        assert transport.datagrams_sent == 0

    def test_hardcoded_port_trips_the_bind_tripwire(self):
        async def scenario():
            peers = local_ring_addresses([0], base_port=40100)
            transport = UdpTransport(pid=0, peers=peers, on_data=lambda d: None,
                                     on_token=lambda d: None)
            await transport.start()

        with pytest.raises(pytest.fail.Exception, match="hard-coded port"):
            with hard_coded(40100, 40101):
                asyncio.run(scenario())


class TestDeliveryLog:
    @staticmethod
    def _messages(count):
        from repro.core.messages import DataMessage, DeliveryService

        return tuple(
            DataMessage(seq=seq, pid=1, round=1, service=DeliveryService.AGREED)
            for seq in range(1, count + 1)
        )

    def test_bare_node_keeps_its_delivery_log(self):
        node = RingNode(0, local_ring_addresses([0], base_port=40100))
        node.deliver(self._messages(3), 1, 1)
        assert node.delivered_count == 3
        assert [m.seq for m in node.delivered] == [1, 2, 3]

    def test_node_with_a_consumer_counts_but_does_not_retain(self):
        node = RingNode(0, local_ring_addresses([0], base_port=40100))
        runs = []
        node.on_deliver = lambda messages, config_id: runs.append(
            ([message.seq for message in messages], config_id)
        )
        node.deliver(self._messages(3), 7, 1)
        assert runs == [([1, 2, 3], 7)]  # the run whole: one call, not three
        assert node.delivered_count == 3
        assert node.delivered == []


class TestRuntimeTimeouts:
    def test_defaults_are_wall_clock_scale(self):
        assert RUNTIME_TIMEOUTS.token_loss >= 0.1
        assert RUNTIME_TIMEOUTS.beacon_interval >= 0.1

    def test_scaled_multiplies_everything(self):
        scaled = RUNTIME_TIMEOUTS.scaled(2.0)
        assert scaled.token_loss == pytest.approx(RUNTIME_TIMEOUTS.token_loss * 2)
        assert scaled.consensus_settle == pytest.approx(
            RUNTIME_TIMEOUTS.consensus_settle * 2
        )


class TestRuntimeProtocol:
    def test_default_is_the_papers_windows_with_only_bytes_binding(self):
        # A visit never sends more than the personal window, so the
        # count can never cut a run short: DATAGRAM_BUDGET alone does.
        assert (
            RUNTIME_PROTOCOL.messages_per_datagram
            == RUNTIME_PROTOCOL.personal_window
        )
        assert replace(RUNTIME_PROTOCOL, messages_per_datagram=1) == ProtocolConfig()

    def test_a_run_leaves_as_one_datagram_per_sub_run(self):
        node = RingNode(0, local_ring_addresses([0], base_port=40100))
        sent = []
        node.transport.multicast_data = sent.append
        run = [data_message(seq, payload=bytes(1039)) for seq in range(1, 21)]
        node.send_data_run(run, False)
        node.send_data_run((run[0],), True)
        assert [datagram[1] for datagram in sent] == [TYPE_DATA_BATCH] * 3 + [TYPE_DATA]
        assert all(len(datagram) <= DATAGRAM_BUDGET for datagram in sent)
        assert sent[3] == encode_data(run[0])
        # Counted per datagram actually sent with two or more messages.
        assert (node.batches_sent, node.batched_messages) == (3, 20)

    def test_largest_payload_fits_a_datagram_even_inside_recovery(self):
        message = data_message(1, payload=bytes(MAX_PAYLOAD))
        wrapped = RecoveredMessage(old_ring_id=1, message=message)
        assert len(encode_any(wrapped)) == MAX_UDP_PAYLOAD
        assert len(encode_data(message)) < MAX_UDP_PAYLOAD


class TestNodeDecodeErrors:
    def test_garbage_datagrams_counted_not_fatal(self):
        async def scenario():
            peers = ephemeral_ring_addresses([0])
            node = RingNode(0, peers)
            await node.start()
            try:
                node._enqueue_data(b"\x00garbage")
                node._enqueue_token(b"")
                await asyncio.sleep(0.05)
                assert node.decode_errors == 2
            finally:
                await node.stop()

        asyncio.run(scenario())

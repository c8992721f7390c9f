"""The runtime's pass (PROTOCOL.md §4): what one wakeup may and may not do.

Paper §III-D/§III-E: data a ring member sent before its token is
processed before that token.  asyncio's datagram transport kept that by
accident — one datagram per socket per wakeup, so a token could never
get more than one datagram ahead.  The runtime now reads everything a
wakeup finds, so the order is a stated rule with its own tests: the
transport reads the data socket dry before it touches the token socket,
and the node handles what was read under the §III-D priority rule.
"""

import asyncio
import socket

import pytest

from repro.core.messages import DataMessage, DeliveryService
from repro.core.token import RegularToken
from repro.core.transport_core import encode_run
from repro.membership.codec import encode_any
from repro.membership.messages import (
    BeaconMessage,
    CommitToken,
    JoinMessage,
    RecoveredMessage,
    RecoveryStatus,
)
from repro.obs.observer import NullObserver
from repro.runtime.fleet import Fleet
from repro.runtime.node import RingNode
from repro.runtime.ports import ephemeral_ring_addresses
from repro.runtime.transport import INGEST_BUDGET, UdpTransport
from tests.integration.test_runtime import wait_until


def test_transport_reads_data_dry_before_any_token():
    """More data than one pass may read, then a token, all in the kernel
    before the loop runs: every data datagram is handed over before the
    token, and the pass that ran out of budget left the token unread."""

    async def scenario():
        order = []
        passes = []
        peers = ephemeral_ring_addresses([0])
        transport = UdpTransport(
            0, peers, on_data=order.append, on_token=order.append
        )
        await transport.start()
        real_ingest = transport._ingest

        def counting_ingest():
            before = len(order)
            real_ingest()
            passes.append(order[before:])

        # Watch the token socket alone, so that every read is a token
        # pass (the data socket's own callback reads nothing but data).
        loop = asyncio.get_running_loop()
        loop.remove_reader(transport._data_sock)
        loop.remove_reader(transport._token_sock)
        loop.add_reader(transport._token_sock, counting_ingest)
        count = INGEST_BUDGET + 10
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            # Token first on the wire: arrival order must not matter.
            sender.sendto(b"token", (peers[0].host, peers[0].token_port))
            for index in range(count):
                sender.sendto(b"data-%d" % index, (peers[0].host, peers[0].data_port))
            assert await wait_until(lambda: len(order) == count + 1, timeout=5.0)
        finally:
            sender.close()
            transport.close()
        assert order == [b"data-%d" % index for index in range(count)] + [b"token"]
        assert len(passes[0]) == INGEST_BUDGET and b"token" not in passes[0]
        assert passes[1][-1] == b"token" and len(passes[1]) == 11

    asyncio.run(scenario())


class _Recorder(NullObserver):
    def __init__(self):
        self.events = []

    def on_token_received(self, pid, token, now=None):
        self.events.append(("token", token.token_id))

    def on_deliver_batch(self, pid, messages, now=None):
        self.events.extend(("deliver", message.seq) for message in messages)


def test_node_handles_queued_data_before_the_token_behind_it():
    """K data datagrams, then the token that covers them, written to a
    started node's ports before its loop runs again: the node delivers
    all K before it handles that token — no retransmission request, no
    token lapping data still in the kernel."""

    async def scenario():
        recorder = _Recorder()
        peers = ephemeral_ring_addresses([0])
        node = RingNode(0, peers, observer=recorder)
        await node.start()
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            assert await wait_until(lambda: node.state == "operational")
            # No awaits from here to the last sendto: the loop does not run.
            ordering = node.controller.ordering
            count = INGEST_BUDGET + 10
            forged_id = ordering._last_token_id + 1000
            for seq in range(1, count + 1):
                message = DataMessage(
                    seq=seq, pid=0, round=ordering.round,
                    service=DeliveryService.AGREED, payload=b"forged",
                    ring_id=node.ring_id,
                )
                sender.sendto(
                    encode_run((message,)), (peers[0].host, peers[0].data_port)
                )
            token = RegularToken(
                ring_id=node.ring_id, token_id=forged_id, seq=count, aru=0
            )
            sender.sendto(encode_any(token), (peers[0].host, peers[0].token_port))
            assert await wait_until(
                lambda: ("token", forged_id) in recorder.events, timeout=5.0
            )
            events = recorder.events
            handled_before = events[: events.index(("token", forged_id))]
            delivered = [seq for kind, seq in handled_before if kind == "deliver"]
            assert delivered == list(range(1, count + 1))
            assert ordering.requests_made == 0
            assert node.decode_errors == 0
        finally:
            sender.close()
            await node.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_forged_service_byte_is_a_decode_error_and_the_pass_completes(batch):
    """A data-port datagram whose service byte names no service, then a
    valid one, in the kernel before the loop runs: the forged datagram is
    a counted decode error, the valid one is delivered in the same pass,
    the pass reaches its batch end (the client flush) and nothing is
    thrown at the event loop."""

    async def scenario():
        peers = ephemeral_ring_addresses([0])
        node = RingNode(0, peers)
        await node.start()
        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            assert await wait_until(lambda: node.state == "operational")
            ordering = node.controller.ordering

            def run(service, seqs):
                return encode_run(tuple(
                    DataMessage(
                        seq=seq, pid=0, round=ordering.round, service=service,
                        payload=b"forged", ring_id=node.ring_id,
                    )
                    for seq in seqs
                ))

            seqs = (1, 2) if batch else (1,)
            agreed = run(DeliveryService.AGREED, seqs)
            safe = run(DeliveryService.SAFE, seqs)
            service_at = next(i for i in range(len(agreed)) if agreed[i] != safe[i])
            forged = bytearray(agreed)
            forged[service_at] = 9
            delivered_at_batch_end = []
            node.on_batch_end = lambda: delivered_at_batch_end.append(node.delivered_count)
            # No awaits between the two sendto calls: one wakeup reads both.
            data_port = (peers[0].host, peers[0].data_port)
            sender.sendto(bytes(forged), data_port)
            sender.sendto(run(DeliveryService.AGREED, (1,)), data_port)
            assert await wait_until(lambda: 1 in delivered_at_batch_end, timeout=5.0)
            assert node.decode_errors == 1
            assert node.delivered_count == 1
            assert loop_errors == []
        finally:
            sender.close()
            await node.stop()

    asyncio.run(scenario())


CONTROL_MESSAGES = {
    "join": JoinMessage(sender=1, proc_set=frozenset({0, 1}), fail_set=frozenset(), ring_seq=4),
    "commit": CommitToken(ring_id=8, members=(0, 1)),
    "recovered": RecoveredMessage(
        old_ring_id=1,
        message=DataMessage(seq=1, pid=1, round=1, service=DeliveryService.AGREED),
    ),
    "status": RecoveryStatus(sender=1, new_ring_id=8, old_ring_id=1, have=(1,),
                             complete=False),
    "beacon": BeaconMessage(sender=1, ring_id=8),
}


@pytest.mark.parametrize("kind", CONTROL_MESSAGES, ids=CONTROL_MESSAGES.keys())
def test_truncated_control_datagram_is_a_decode_error_and_the_token_behind_it_is_handled(kind):
    """A token-port datagram cut inside its header, queued ahead of a
    token: it is a counted decode error, the token behind it is handled
    in the same pass, that pass reaches its batch end, and nothing is
    thrown at the event loop (it used to escape the pass as
    ``struct.error``)."""

    async def scenario():
        recorder = _Recorder()
        peers = ephemeral_ring_addresses([0])
        node = RingNode(0, peers, observer=recorder)
        await node.start()
        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        try:
            assert await wait_until(lambda: node.state == "operational")
            ordering = node.controller.ordering
            forged_id = ordering._last_token_id + 1000
            token = RegularToken(ring_id=node.ring_id, token_id=forged_id, seq=0, aru=0)
            batch_ends = []
            node.on_batch_end = lambda: batch_ends.append(
                (node.decode_errors, ("token", forged_id) in recorder.events)
            )
            errors = node.decode_errors
            # Queued by hand, in this order, so one pass holds both.
            node._enqueue_token(encode_any(CONTROL_MESSAGES[kind])[:3])
            node._enqueue_token(encode_any(token))
            assert await wait_until(lambda: any(handled for _, handled in batch_ends))
            first = next(i for i, (_, handled) in enumerate(batch_ends) if handled)
            assert batch_ends[first][0] == errors + 1
            assert all(counted == errors for counted, _ in batch_ends[:first])
            assert loop_errors == []
        finally:
            await node.stop()

    asyncio.run(scenario())


def test_closed_loop_fleet_does_not_storm():
    """Tripwire for a token that laps its data: the ring then re-requests
    what is merely unread and datagrams per message explode (2 → 120 when
    the node's pass was prototyped without the transport's read order).
    Three daemons, three clients with 16 in flight each, as on the
    benchmark's fleet-sat: a saturated ring sends each message to two
    peers and little else."""

    async def scenario():
        clients, pipeline, warm, measured = 3, 16, 300, 1500
        fleet = Fleet(num_daemons=3)
        await fleet.start()
        try:
            handles = [await fleet.connect_client(name=f"c{i}") for i in range(clients)]
            for client in handles:
                await client.join("storm")
            for client in handles:
                await client.wait_for_view("storm", clients)
            pad = b"x" * 1000
            marks = []
            acked = 0
            done = asyncio.Event()

            async def pump(me: int) -> None:
                nonlocal acked
                client, mine = handles[me], b"%d:" % me
                for _ in range(pipeline):
                    client.multicast(["storm"], mine + pad)
                while not done.is_set():
                    event = await client.receive()
                    if not getattr(event, "payload", b"").startswith(mine):
                        continue
                    acked += 1
                    if acked in (warm, warm + measured):
                        marks.append(fleet.counters())
                    if acked == warm + measured:
                        done.set()
                    client.multicast(["storm"], mine + pad)

            pumps = [asyncio.ensure_future(pump(me)) for me in range(clients)]
            await asyncio.wait_for(done.wait(), 30.0)
            for task in pumps:
                task.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
        finally:
            await fleet.drain_and_stop()
        before, after = marks
        datagrams = after["datagrams_sent"] - before["datagrams_sent"]
        assert datagrams / measured < 3.0, (datagrams, measured)
        for counter in ("decode_errors", "datagrams_send_dropped", "clients_dropped_slow"):
            assert after[counter] == 0, counter
        # The client side of the same batching: a pass's deliveries to a
        # client leave in one socket write, so writes trail deliveries.
        deliveries = (
            after["messages_delivered_to_clients"] - before["messages_delivered_to_clients"]
        )
        writes = after["client_writes"] - before["client_writes"]
        assert 0 < writes < deliveries / 1.5, (writes, deliveries)

    asyncio.run(scenario())

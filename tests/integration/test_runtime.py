"""Integration tests for the real asyncio/UDP runtime over loopback."""

import asyncio
import random

import pytest

from repro.core.codec import TYPE_DATA_BATCH
from repro.core.messages import DeliveryService
from repro.core.transport_core import decode_data_port
from repro.membership.params import MembershipTimeouts
from repro.runtime.node import MAX_PAYLOAD, RingNode
from repro.runtime.ports import ephemeral_ring_addresses
from repro.util.errors import CodecError

#: Faster wall-clock timeouts so tests stay snappy.
FAST_TIMEOUTS = MembershipTimeouts(
    token_loss=0.25,
    join_interval=0.05,
    consensus_timeout=0.2,
    consensus_settle=0.08,
    commit_timeout=0.5,
    recovery_status_interval=0.05,
    recovery_timeout=1.5,
    beacon_interval=0.2,
)


async def wait_until(predicate, timeout=8.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


async def start_ring(n, **kwargs):
    peers = ephemeral_ring_addresses(range(n))
    nodes = [
        RingNode(pid, peers, timeouts=FAST_TIMEOUTS, **kwargs) for pid in range(n)
    ]
    for node in nodes:
        await node.start()
    formed = await wait_until(
        lambda: all(len(node.members) == n for node in nodes)
    )
    assert formed, f"ring did not form: {[node.members for node in nodes]}"
    return nodes


async def stop_all(nodes):
    for node in nodes:
        await node.stop()


def record_data_datagrams(node, sent):
    """Append every data datagram ``node`` multicasts to ``sent``."""
    multicast = node.transport.multicast_data

    def recording_multicast(datagram):
        sent.append(datagram)
        multicast(datagram)

    node.transport.multicast_data = recording_multicast


def test_ring_forms_and_orders_messages():
    async def scenario():
        nodes = await start_ring(3)
        try:
            for node in nodes:
                for index in range(15):
                    node.submit(
                        payload=f"{node.pid}:{index}".encode(),
                        service=DeliveryService.SAFE if index % 5 == 0
                        else DeliveryService.AGREED,
                    )
            done = await wait_until(
                lambda: all(len(node.delivered) >= 45 for node in nodes)
            )
            assert done, [len(node.delivered) for node in nodes]
            orders = [
                [(m.ring_id, m.seq) for m in node.delivered] for node in nodes
            ]
            assert orders[0] == orders[1] == orders[2]
        finally:
            await stop_all(nodes)

    asyncio.run(scenario())


def test_crash_reforms_ring_and_traffic_continues():
    async def scenario():
        nodes = await start_ring(3)
        try:
            await nodes[2].stop()
            reformed = await wait_until(
                lambda: all(node.members == (0, 1) for node in nodes[:2])
            )
            assert reformed, [node.members for node in nodes[:2]]
            nodes[0].submit(payload=b"after-crash", service=DeliveryService.SAFE)
            delivered = await wait_until(
                lambda: any(
                    m.payload == b"after-crash" for m in nodes[1].delivered
                )
            )
            assert delivered
        finally:
            await stop_all(nodes[:2])

    asyncio.run(scenario())


def test_crash_and_stop_cancel_every_armed_timer():
    """``stop`` (a crash, for a node) cancels the loop handle behind every
    armed timer, one whose deadline moved later in place included, and
    leaves the survivors' timers armed."""

    def armed_handles(node):
        timers = list(node._effects._timers.values())
        handles = [timer._armed for timer in timers]
        assert handles and None not in handles
        return timers, handles

    async def scenario():
        nodes = await start_ring(3)
        await asyncio.sleep(0.05)  # the token-loss timers move on every visit
        try:
            timers, handles = armed_handles(nodes[2])
            assert any(timer._due < timer.when for timer in timers)
            await nodes[2].stop()
            assert nodes[2]._effects.armed_timers == ()
            assert all(handle.cancelled() for handle in handles)
            assert all(timer._armed is None for timer in timers)
            for node in nodes[:2]:
                timers, handles = armed_handles(node)
                assert not any(handle.cancelled() for handle in handles)
                await node.stop()
                assert node._effects.armed_timers == ()
                assert all(handle.cancelled() for handle in handles)
        finally:
            await stop_all(nodes)

    asyncio.run(scenario())


#: Node 1's loss model.  Its first draw falls below the rate, so the
#: first data datagram node 1 receives is dropped whatever the
#: scheduling — and with thirty messages pending everywhere that
#: datagram is a coalesced run, not a single message.
LOSS_RATE, LOSS_SEED = 0.2, 1


def _messages_in(datagram):
    decoded = decode_data_port(datagram)
    return decoded if isinstance(decoded, list) else [decoded]


def test_loss_recovered_by_retransmissions():
    """A dropped batch loses every message in it (the blast radius,
    PROTOCOL.md §9.1); each one is requested and retransmitted *alone*,
    and all three nodes still deliver everything in one order."""
    assert random.Random(LOSS_SEED).random() < LOSS_RATE

    async def scenario():
        peers = ephemeral_ring_addresses(range(3))
        nodes = [
            RingNode(
                pid,
                peers,
                timeouts=FAST_TIMEOUTS,
                loss_rate=LOSS_RATE if pid == 1 else 0.0,
                loss_seed=LOSS_SEED,
            )
            for pid in range(3)
        ]
        sent = []  # every data datagram any node multicast, in order
        for node in nodes:
            record_data_datagrams(node, sent)
        lost = []  # messages in each datagram node 1's loss model dropped
        lossy = nodes[1].transport
        receive = lossy._receive_data

        def receive_counting_losses(datagram):
            dropped = lossy.datagrams_dropped
            receive(datagram)
            if lossy.datagrams_dropped > dropped:
                lost.append(len(_messages_in(datagram)))

        lossy._receive_data = receive_counting_losses
        for node in nodes:
            await node.start()
        try:
            formed = await wait_until(
                lambda: all(len(node.members) == 3 for node in nodes)
            )
            assert formed
            for node in nodes:
                for index in range(30):
                    node.submit(payload=f"{node.pid}:{index}".encode())
            done = await wait_until(
                lambda: all(len(node.delivered) >= 90 for node in nodes),
                timeout=15.0,
            )
            assert done, [len(node.delivered) for node in nodes]
            assert lossy.datagrams_dropped == len(lost) > 0
            assert max(lost) > 1, "no coalesced datagram was dropped"
            retransmitted = sum(
                node.controller.ordering.retransmissions_sent for node in nodes
            )
            assert retransmitted >= sum(lost)
            # On the wire a message's second appearance is never inside
            # a batch frame: ``rtr`` names messages, repairs travel alone.
            seen = set()
            for datagram in sent:
                messages = _messages_in(datagram)
                keys = [(m.ring_id, m.seq) for m in messages]
                if datagram[1] == TYPE_DATA_BATCH:
                    assert seen.isdisjoint(keys)
                seen.update(keys)
            assert len(seen) == 90 < sum(len(_messages_in(d)) for d in sent)
            orders = [
                [(m.ring_id, m.seq) for m in node.delivered] for node in nodes
            ]
            assert orders[0] == orders[1] == orders[2]
        finally:
            await stop_all(nodes)

    asyncio.run(scenario())


def test_oversized_payload_is_refused_at_submit():
    """A message that could never leave in one UDP datagram is a
    ``CodecError`` where it enters — nothing is queued, so the ring goes
    on ordering; the largest payload that does fit is delivered."""

    async def scenario():
        nodes = await start_ring(2)
        try:
            for too_large in (MAX_PAYLOAD + 1, 70_000):
                with pytest.raises(CodecError, match="cannot be encoded"):
                    nodes[0].submit(payload=bytes(too_large))
            nodes[0].submit(payload=bytes(MAX_PAYLOAD))
            nodes[0].submit(payload=b"after")
            done = await wait_until(
                lambda: all(node.delivered_count == 2 for node in nodes)
            )
            assert done, [node.delivered_count for node in nodes]
            for node in nodes:
                assert [len(m.payload) for m in node.delivered] == [MAX_PAYLOAD, 5]
                assert node.transport.datagrams_send_dropped == 0
        finally:
            await stop_all(nodes)

    asyncio.run(scenario())


def test_original_protocol_over_runtime():
    async def scenario():
        nodes = await start_ring(3, accelerated=False)
        try:
            nodes[0].submit(payload=b"orig")
            delivered = await wait_until(
                lambda: all(
                    any(m.payload == b"orig" for m in node.delivered)
                    for node in nodes
                )
            )
            assert delivered
        finally:
            await stop_all(nodes)

    asyncio.run(scenario())


def test_token_loss_recovered_by_membership():
    """Token loss is handled by the membership algorithm (paper §IV-A4):
    with occasional token drops the ring keeps re-forming and ordering
    traffic end to end over real sockets."""

    async def scenario():
        peers = ephemeral_ring_addresses(range(3))
        nodes = [
            RingNode(
                pid,
                peers,
                timeouts=FAST_TIMEOUTS,
                # Token loss must be *rare* relative to the loss timeout
                # (the paper's premise); the token passes thousands of
                # times per second over loopback, so even 0.2% yields
                # several losses per second of test.
                token_loss_rate=0.002 if pid == 1 else 0.0,
                loss_seed=pid + 1,
            )
            for pid in range(3)
        ]
        for node in nodes:
            await node.start()
        try:
            formed = await wait_until(
                lambda: all(len(node.members) == 3 for node in nodes)
            )
            assert formed
            # The token rotates continuously; wait until at least one
            # token has actually been dropped, so the test proves the
            # recovery path rather than a lucky run.
            dropped = await wait_until(
                lambda: nodes[1].transport.tokens_dropped > 0, timeout=20.0
            )
            assert dropped
            for node in nodes:
                for index in range(10):
                    node.submit(payload=f"{node.pid}:{index}".encode())
            done = await wait_until(
                lambda: all(len(node.delivered) >= 30 for node in nodes),
                timeout=25.0,
            )
            assert done, [len(node.delivered) for node in nodes]
            orders = [
                [(m.ring_id, m.seq) for m in node.delivered][:30] for node in nodes
            ]
            # common prefix per ring id: total order held across any
            # membership changes the token losses caused
            for log in orders[1:]:
                assert log == orders[0]
        finally:
            await stop_all(nodes)

    asyncio.run(scenario())


def test_configuration_events_surface_to_application():
    async def scenario():
        nodes = await start_ring(2)
        try:
            assert all(
                any(not c.transitional and len(c.members) == 2
                    for c in node.configurations)
                for node in nodes
            )
        finally:
            await stop_all(nodes)

    asyncio.run(scenario())

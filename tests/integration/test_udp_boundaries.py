"""Boundary tests over *real* loopback UDP.

The sim-layer fences live in tests/property/test_spread_boundaries.py;
these re-pin the same edges end to end through actual sockets: payloads
whose one-frame container is one byte under, at and one byte over the
fragment chunk size must survive the full daemon pipeline, and a ring must coalesce a visit's messages — by
default, up to a byte budget, never into a datagram the kernel refuses —
while delivering the identical total order.
"""

import asyncio
import os
import tempfile

import pytest

from repro.core.codec import DATA_HEADER_BYTES
from repro.core.config import ProtocolConfig
from repro.core.messages import DeliveryService
from repro.runtime import ipc
from repro.runtime.node import RingNode
from repro.runtime.ports import ephemeral_ring_addresses
from repro.runtime.transport import DATAGRAM_BUDGET, MAX_UDP_PAYLOAD
from repro.spread.client_api import SpreadClient
from repro.spread.daemon import SpreadDaemon
from repro.spread.fragmentation import FRAGMENT_CHUNK
from repro.spread.frames import frames_prefix
from tests.integration.test_runtime import (
    FAST_TIMEOUTS,
    record_data_datagrams,
    wait_until,
)

def test_payloads_at_chunk_fence_roundtrip_over_udp():
    """A groupcast whose one-frame container is one byte under or at the
    chunk size is ordered whole; one byte over, as its fragments — all
    arrive intact."""

    async def scenario():
        with tempfile.TemporaryDirectory() as tmp:
            peers = ephemeral_ring_addresses(range(2))
            daemons = [
                SpreadDaemon(
                    pid,
                    peers,
                    os.path.join(tmp, f"d{pid}.sock"),
                    timeouts=FAST_TIMEOUTS,
                )
                for pid in range(2)
            ]
            for daemon in daemons:
                await daemon.start()
            try:
                assert await wait_until(
                    lambda: all(len(d.node.members) == 2 for d in daemons)
                )
                sender = SpreadClient(
                    daemons[0].socket_path, name="snd"
                )
                receiver = SpreadClient(
                    daemons[1].socket_path, name="rcv"
                )
                await sender.connect()
                await receiver.connect()
                await receiver.join("fence")
                await receiver.wait_for_view("fence", 1)
                container = len(frames_prefix(sender.member_name)) + len(
                    ipc.pack_groupcast(["fence"], DeliveryService.AGREED, b"")
                )
                fence = FRAGMENT_CHUNK - container
                sizes = (fence - 1, fence, fence + 1)
                for index, size in enumerate(sizes):
                    # Distinct fill bytes so a mis-reassembled payload
                    # cannot masquerade as its neighbour.
                    sender.multicast(
                        ["fence"], bytes([index + 1]) * size
                    )
                got = await asyncio.wait_for(
                    receiver.receive_messages(len(sizes)), 15
                )
                payloads = [bytes(m.payload) for m in got]
                assert [len(p) for p in payloads] == list(sizes)
                for index, payload in enumerate(payloads):
                    assert payload == bytes([index + 1]) * len(payload)
                assert daemons[0].fragmenter.messages_fragmented == 1
                await sender.close()
                await receiver.close()
            finally:
                for daemon in daemons:
                    await daemon.stop()

    asyncio.run(scenario())


def _run_ring_of_two(submit, expected, **node_kwargs):
    """Form a two-node ring, let ``submit(sender)`` inject, wait until
    both nodes delivered ``expected`` messages; returns the nodes
    (stopped) and the size of every data datagram the sender sent."""

    async def scenario():
        peers = ephemeral_ring_addresses(range(2))
        nodes = [
            RingNode(pid, peers, timeouts=FAST_TIMEOUTS, **node_kwargs)
            for pid in range(2)
        ]
        sent = []
        record_data_datagrams(nodes[0], sent)
        for node in nodes:
            await node.start()
        try:
            assert await wait_until(
                lambda: all(len(n.members) == 2 for n in nodes)
            )
            submit(nodes[0])
            done = await wait_until(
                lambda: all(len(n.delivered) >= expected for n in nodes)
            )
            assert done, [len(n.delivered) for n in nodes]
        finally:
            for node in nodes:
                await node.stop()
        return nodes, [len(datagram) for datagram in sent]

    return asyncio.run(scenario())


def test_max_packing_coalesces_and_preserves_order():
    """messages_per_datagram > 1 actually batches over real sockets,
    and both nodes still deliver the identical total order."""
    mpd = 8
    total = 4 * mpd

    def submit(sender):
        for index in range(total):
            sender.submit(payload=b"pack:%d" % index)

    nodes, _sizes = _run_ring_of_two(
        submit, total, protocol_config=ProtocolConfig(messages_per_datagram=mpd)
    )
    # Batching really happened on the wire: the sender emitted
    # multi-message datagrams.
    assert nodes[0].batches_sent > 0
    assert nodes[0].batched_messages > nodes[0].batches_sent
    assert nodes[0].batched_messages <= total
    orders = [[(m.ring_id, m.seq) for m in n.delivered] for n in nodes]
    assert orders[0] == orders[1]
    payloads = {bytes(m.payload) for m in nodes[1].delivered}
    assert payloads == {b"pack:%d" % i for i in range(total)}


def _submit_solos(sender):
    for index in range(10):
        sender.submit(payload=b"solo:%d" % index)


def test_single_message_never_batched():
    """An explicit ``messages_per_datagram=1`` (the paper's prototype,
    and how a test or oracle turns coalescing off) means what it says:
    one message per datagram, the batch path never engages."""
    nodes, sizes = _run_ring_of_two(
        _submit_solos, 10, protocol_config=ProtocolConfig(messages_per_datagram=1)
    )
    assert nodes[0].batches_sent == 0
    assert nodes[0].batched_messages == 0
    assert len(sizes) == 10


def test_default_node_batches_and_preserves_order():
    """With no config given, the messages of one token visit share
    datagrams — and both nodes deliver the identical total order."""
    nodes, sizes = _run_ring_of_two(_submit_solos, 10)
    assert nodes[0].batches_sent > 0
    assert nodes[0].batched_messages > nodes[0].batches_sent
    assert len(sizes) < 10
    orders = [[(m.ring_id, m.seq) for m in n.delivered] for n in nodes]
    assert orders[0] == orders[1]
    assert [bytes(m.payload) for m in nodes[1].delivered] == [
        b"solo:%d" % index for index in range(10)
    ]


@pytest.mark.parametrize(
    "count, size, per_datagram",
    [
        (8, 10_000, 1),  # 80 KB as one batch, which ``sendto`` refuses
        (12, 4_000, 2),  # two fit a jumbo frame, three do not
    ],
)
def test_datagrams_are_filled_by_bytes_not_by_count(count, size, per_datagram):
    """One visit's large messages leave in datagrams that fit: a message
    above the budget travels alone, the others share up to the budget,
    and the kernel refuses none of them."""

    def submit(sender):
        for index in range(count):
            sender.submit(payload=bytes([index]) * size)

    nodes, sizes = _run_ring_of_two(submit, count)
    alone = DATA_HEADER_BYTES + size
    assert max(sizes) <= max(alone, DATAGRAM_BUDGET) <= MAX_UDP_PAYLOAD
    if per_datagram == 1:
        assert set(sizes) == {alone}
        assert nodes[0].batches_sent == 0
    else:
        assert nodes[0].batches_sent >= count // per_datagram - 1
        assert nodes[0].batched_messages == per_datagram * nodes[0].batches_sent
    assert all(n.transport.datagrams_send_dropped == 0 for n in nodes)
    assert [bytes(m.payload) for m in nodes[1].delivered] == [
        bytes([index]) * size for index in range(count)
    ]

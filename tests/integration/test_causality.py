"""Causal ordering through the total order (paper §II: "The total order
respects causality").

A reply sent after delivering a trigger must be ordered after it at
every participant — the property that makes Agreed delivery usable for
request/response coordination.
"""

import asyncio
from typing import Sequence

from repro.core.messages import DataMessage, DeliveryService
from repro.runtime.node import RingNode
from repro.runtime.ports import ephemeral_ring_addresses
from tests.integration.test_runtime import FAST_TIMEOUTS, wait_until


def test_reply_ordered_after_trigger_everywhere():
    async def scenario():
        peers = ephemeral_ring_addresses(range(3))
        nodes = [RingNode(pid, peers, timeouts=FAST_TIMEOUTS) for pid in range(3)]

        # Node 1 replies the moment it delivers the trigger.  (A node
        # with a consumer hands its deliveries over instead of logging
        # them, so the consumer keeps node 1's log.)
        def reply_on_trigger(messages: Sequence[DataMessage], config_id: int) -> None:
            nodes[1].delivered.extend(messages)
            if any(message.payload == b"trigger" for message in messages):
                nodes[1].submit(payload=b"reply")

        nodes[1].on_deliver = reply_on_trigger
        for node in nodes:
            await node.start()
        try:
            assert await wait_until(
                lambda: all(len(node.members) == 3 for node in nodes)
            )
            nodes[0].submit(payload=b"trigger")
            assert await wait_until(
                lambda: all(
                    any(m.payload == b"reply" for m in node.delivered)
                    for node in nodes
                )
            )
            for node in nodes:
                payloads = [m.payload for m in node.delivered]
                assert payloads.index(b"trigger") < payloads.index(b"reply")
        finally:
            for node in nodes:
                await node.stop()

    asyncio.run(scenario())


def test_fifo_per_sender_over_runtime():
    """FIFO: one sender's messages deliver in submission order at every
    receiver, even when interleaved with other senders' traffic."""

    async def scenario():
        peers = ephemeral_ring_addresses(range(3))
        nodes = [RingNode(pid, peers, timeouts=FAST_TIMEOUTS) for pid in range(3)]
        for node in nodes:
            await node.start()
        try:
            assert await wait_until(
                lambda: all(len(node.members) == 3 for node in nodes)
            )
            for index in range(20):
                for node in nodes:
                    node.submit(
                        payload=f"{node.pid}:{index}".encode(),
                        service=DeliveryService.FIFO,
                    )
            assert await wait_until(
                lambda: all(len(node.delivered) >= 60 for node in nodes)
            )
            for node in nodes:
                per_sender = {}
                for message in node.delivered:
                    sender, _, index = message.payload.partition(b":")
                    last = per_sender.get(sender, -1)
                    assert int(index) == last + 1, (
                        f"sender {sender}: {index} after {last}"
                    )
                    per_sender[sender] = int(index)
        finally:
            for node in nodes:
                await node.stop()

    asyncio.run(scenario())

#!/usr/bin/env python3
"""Replicated financial ledger over real sockets.

The paper's introduction motivates totally ordered multicast with
"maintaining consistent distributed state in systems as diverse as
financial systems, distributed storage systems, cloud management...".
This example builds the financial one: three ledger replicas apply
transfer commands in total order, so balances stay identical everywhere
— even though each replica submits commands concurrently and one replica
crashes mid-run.

Transfers use **Safe delivery**: a replica only applies (and would only
acknowledge) a transfer once every replica is known to have received it,
the property an audit trail needs.

This runs the real asyncio/UDP runtime over loopback, not the simulator.

Run:  python examples/replicated_ledger.py
"""

import asyncio
import json
from typing import Dict, Sequence

from repro.core.messages import DataMessage, DeliveryService
from repro.runtime.node import RingNode
from repro.runtime.transport import local_ring_addresses


class LedgerReplica:
    """One state-machine replica: a dict of account balances."""

    def __init__(self, node: RingNode) -> None:
        self.node = node
        self.balances: Dict[str, int] = {}
        self.applied = 0
        node.on_deliver = self._apply_run

    def _apply_run(self, messages: Sequence[DataMessage], config_id: int) -> None:
        """The node hands over a delivered run at a time."""
        for message in messages:
            self._apply(json.loads(message.payload))

    def _apply(self, command: dict) -> None:
        if command["op"] == "open":
            self.balances[command["account"]] = command["amount"]
        elif command["op"] == "transfer":
            src, dst, amount = command["src"], command["dst"], command["amount"]
            # deterministic rule: reject overdrafts identically everywhere
            if self.balances.get(src, 0) >= amount:
                self.balances[src] -= amount
                self.balances[dst] = self.balances.get(dst, 0) + amount
        self.applied += 1

    def submit(self, command: dict) -> None:
        self.node.submit(
            payload=json.dumps(command).encode(),
            service=DeliveryService.SAFE,
        )


async def main() -> None:
    peers = local_ring_addresses(range(3), base_port=31800)
    replicas = [LedgerReplica(RingNode(pid, peers)) for pid in range(3)]
    for replica in replicas:
        await replica.node.start()

    # Wait for the ring to form.
    while not all(len(r.node.members) == 3 for r in replicas):
        await asyncio.sleep(0.05)
    print("ring formed:", replicas[0].node.members)

    # Seed accounts from replica 0 and wait until every replica applied them.
    for account in ("alice", "bob", "carol"):
        replicas[0].submit({"op": "open", "account": account, "amount": 1000})
    while not all(r.applied >= 3 for r in replicas):
        await asyncio.sleep(0.05)

    # Concurrent conflicting transfers from different replicas — the total
    # order decides who wins the race on alice's balance.
    replicas[0].submit({"op": "transfer", "src": "alice", "dst": "bob", "amount": 800})
    replicas[1].submit({"op": "transfer", "src": "alice", "dst": "carol", "amount": 800})
    replicas[2].submit({"op": "transfer", "src": "bob", "dst": "carol", "amount": 100})

    while not all(r.applied >= 6 for r in replicas):
        await asyncio.sleep(0.05)

    print("balances per replica:")
    for index, replica in enumerate(replicas):
        print(f"  replica {index}: {dict(sorted(replica.balances.items()))}")
    assert replicas[0].balances == replicas[1].balances == replicas[2].balances
    print("replicas agree: exactly one of the conflicting 800-transfers applied.")

    # Crash replica 2; the survivors keep processing.
    await replicas[2].node.stop()
    while not all(r.node.members == (0, 1) for r in replicas[:2]):
        await asyncio.sleep(0.05)
    print("replica 2 crashed; ring reformed:", replicas[0].node.members)

    replicas[1].submit({"op": "transfer", "src": "carol", "dst": "alice", "amount": 50})
    while not all(r.applied >= 7 for r in replicas[:2]):
        await asyncio.sleep(0.05)
    assert replicas[0].balances == replicas[1].balances
    print("post-crash transfer applied consistently:",
          dict(sorted(replicas[0].balances.items())))

    for replica in replicas[:2]:
        await replica.node.stop()


if __name__ == "__main__":
    asyncio.run(main())

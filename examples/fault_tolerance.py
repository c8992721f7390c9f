#!/usr/bin/env python3
"""Crashes, partitions, and merges under Extended Virtual Synchrony.

Drives the full membership algorithm in the simulated testbed through
the paper's fault model (§II: "tolerates message loss, process crashes
and recoveries, and network partitions and merges") and verifies every
EVS guarantee on the recorded delivery traces with the independent
checker.

Run:  python examples/fault_tolerance.py
"""

from repro.core.messages import DeliveryService
from repro.sim.build import ClusterBuilder


def show(cluster, label: str) -> None:
    rings = cluster.rings()
    unique = sorted(set(rings.values()))
    print(f"{label:28s} rings: {unique}")


def main() -> None:
    cluster = ClusterBuilder().hosts(5).membership().build()
    cluster.start()
    cluster.run(0.08)
    show(cluster, "boot")

    # Normal traffic: a mix of Agreed and Safe messages.
    for host in cluster.hosts.values():
        for index in range(10):
            host.submit(
                payload_size=200,
                service=DeliveryService.SAFE if index % 3 == 0
                else DeliveryService.AGREED,
            )
    cluster.run(0.05)
    print(f"{'traffic':28s} delivered:",
          {p: len(h.delivered) for p, h in cluster.hosts.items()})

    # Crash one daemon: the token stops, the loss timeout fires, and the
    # survivors gather a new ring.
    cluster.crash(4)
    cluster.run(0.3)
    show(cluster, "after crash of 4")

    # Partition the survivors 2 + 2: each side forms its own ring and
    # keeps making progress (EVS is a partitionable model).
    cluster.partition({0, 1}, {2, 3})
    cluster.run(0.4)
    show(cluster, "partitioned {0,1} | {2,3}")
    cluster.hosts[0].submit(payload_size=100, service=DeliveryService.SAFE)
    cluster.hosts[2].submit(payload_size=100, service=DeliveryService.SAFE)
    cluster.run(0.1)

    # Heal: beacons reveal the foreign ring; both sides gather and merge,
    # exchanging whatever messages the other side missed.
    cluster.heal()
    cluster.run(1.0)
    show(cluster, "healed")

    cluster.hosts[3].submit(payload_size=100, service=DeliveryService.SAFE)
    cluster.run(0.2)
    print(f"{'final':28s} delivered:",
          {p: len(h.delivered) for p, h in cluster.hosts.items()})
    print(f"{'':28s} view changes:",
          {p: h.controller.view_changes for p, h in cluster.hosts.items()})

    # The independent checker validates agreed total order, safe delivery,
    # configuration agreement, virtual synchrony, and self-delivery.
    cluster.checker.check(crashed={4})
    print()
    print("EVS checker: all guarantees hold across crash, partition, and merge.")


if __name__ == "__main__":
    main()

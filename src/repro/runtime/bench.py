"""The runtime bench cases: real loopback throughput/latency + pins.

The cases of ``repro bench --suite runtime`` (:mod:`repro.bench.harness`
runs and gates them against ``benchmarks/baselines/BENCH_runtime.json``).

Unlike the sim benches, wall time here is *real*: messages cross real
UDP sockets and real unix-domain client connections.  The deterministic
blocks therefore avoid anything timing-dependent — they pin message
counts, delivery-order identity across nodes, the sha256 digest of the
serialized case's total order, and zero-tolerance health counters
(decode errors, slow-client drops) that must hold regardless of speed.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from typing import Any, Callable, Dict, List

from repro.bench.harness import BenchCase
from repro.conformance.workload import make_label
from repro.runtime.fleet import FLEET_TIMEOUTS, Fleet, run_fleet_workload
from repro.runtime.node import RingNode
from repro.runtime.ports import ephemeral_ring_addresses

# ----------------------------------------------------------------------
# Case: serialized ring — exact total-order digest
# ----------------------------------------------------------------------


async def _ring_serialized_async(
    seed: int, num_nodes: int = 3, bursts: int = 8, burst_size: int = 25
) -> Dict[str, Any]:
    addresses = ephemeral_ring_addresses(range(num_nodes))
    nodes = {
        pid: RingNode(pid, addresses, timeouts=FLEET_TIMEOUTS)
        for pid in range(num_nodes)
    }
    #: What each node delivered, in order (a node with a consumer keeps
    #: no log of its own).
    streams: Dict[int, List[bytes]] = {pid: [] for pid in nodes}
    #: Set when a node installs a configuration or reaches ``target``
    #: deliveries: the waiter below sleeps on it instead of polling.
    changed = asyncio.Event()
    target = 0

    def consumer(log: List[bytes]) -> Callable[..., None]:
        def on_deliver(messages, config_id) -> None:
            log.extend(bytes(message.payload) for message in messages)
            if len(log) >= target:
                changed.set()

        return on_deliver

    for pid, node in nodes.items():
        node.on_deliver = consumer(streams[pid])
        node.on_config = lambda configuration: changed.set()
        await node.start()

    async def wait_for(check, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while not check():
            changed.clear()
            try:
                await asyncio.wait_for(changed.wait(), deadline - time.monotonic())
            except asyncio.TimeoutError:
                raise TimeoutError("runtime bench: ring did not converge") from None

    want = tuple(range(num_nodes))
    await wait_for(
        lambda: all(
            n.state == "operational" and tuple(n.members) == want
            for n in nodes.values()
        ),
        15.0,
    )

    total = bursts * burst_size
    started = time.monotonic()
    for burst in range(bursts):
        sender = nodes[burst % num_nodes]
        for offset in range(burst_size):
            sender.submit(payload=make_label(sender.pid, target + offset))
        target += burst_size
        await wait_for(
            lambda: all(len(log) >= target for log in streams.values()), 10.0
        )
    wall = time.monotonic() - started

    reference = streams[0]
    order_identity = all(stream == reference for stream in streams.values())
    digest = hashlib.sha256(b"\x00".join(reference)).hexdigest()
    decode_errors = sum(n.decode_errors for n in nodes.values())
    for node in nodes.values():
        await node.stop()
    return {
        "deterministic": {
            "nodes": num_nodes,
            "messages": total,
            "delivered_per_node": len(reference),
            "order_identity": order_identity,
            "order_digest": digest,
            "decode_errors": decode_errors,
        },
        "wall": {
            "wall_time_s": round(wall, 4),
            "ops_per_sec": round(total / wall, 1) if wall > 0 else 0.0,
        },
    }


def _case_ring_serialized(seed: int) -> Dict[str, Any]:
    return asyncio.run(_ring_serialized_async(seed))


# ----------------------------------------------------------------------
# Case: closed-loop fleet — msgs/sec and latency percentiles
# ----------------------------------------------------------------------


async def _fleet_closed_loop_async(
    seed: int, num_daemons: int = 3, num_clients: int = 6, duration: float = 1.5
) -> Dict[str, Any]:
    fleet = Fleet(num_daemons)
    await fleet.start()
    try:
        report = await run_fleet_workload(
            fleet, num_clients=num_clients, duration=duration
        )
        counters = report["counters"]
    finally:
        await fleet.drain_and_stop()
    return {
        "deterministic": {
            "daemons": num_daemons,
            "clients": num_clients,
            "decode_errors": counters["decode_errors"],
            "clients_dropped_slow": counters["clients_dropped_slow"],
            # Closed-loop: every sent message must come back ordered.
            "all_acked": report["messages_acked"] == report["messages_sent"],
        },
        "wall": {
            "wall_time_s": report["duration_s"],
            "ops_per_sec": report["msgs_per_sec"],
            "latency_p50_ms": report["latency_p50_ms"],
            "latency_p99_ms": report["latency_p99_ms"],
            "messages_acked": report["messages_acked"],
        },
    }


def _case_fleet_closed_loop(seed: int) -> Dict[str, Any]:
    return asyncio.run(_fleet_closed_loop_async(seed))


CASES: List[BenchCase] = [
    BenchCase(
        name="ring_serialized",
        run=_case_ring_serialized,
        summary="3-node loopback ring, serialized bursts, exact order digest",
    ),
    BenchCase(
        name="fleet_closed_loop",
        run=_case_fleet_closed_loop,
        summary="3-daemon fleet, 6 closed-loop clients, msgs/sec + latency",
    ),
]

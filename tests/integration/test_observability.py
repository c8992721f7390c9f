"""Integration tests for the observability layer across all three stacks:
the bare-engine simulator, the membership simulator, and the asyncio
runtime.  The load-bearing invariant: the observer's delivered count is
exactly the application-visible delivery count the EVS checker records.
"""

import asyncio
import json

from repro.core.messages import DeliveryService
from repro.evs.events import MessageDelivery
from repro.net.loss import UniformLoss
from repro.obs.export import load_json, to_json
from repro.obs.observer import MetricsObserver
from repro.sim.build import ClusterBuilder
from repro.workloads.generators import FixedRateWorkload

from repro.membership.params import MembershipTimeouts
from repro.runtime.node import RingNode
from repro.runtime.ports import ephemeral_ring_addresses

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

#: Distinct from test_runtime's 30000-range counter so parallel test
#: runs on one machine don't collide.


async def wait_until(predicate, timeout=8.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


async def stop_all(nodes):
    for node in nodes:
        await node.stop()


def test_observer_counts_match_evs_checker_on_lossy_run():
    """On a lossy membership run, ``deliver.messages`` must equal the
    number of MessageDelivery events across every checker trace — the
    observer and the checker watch the same delivery stream."""
    observer = MetricsObserver()
    cluster = (
        ClusterBuilder()
        .hosts(4)
        .membership()
        .loss(UniformLoss(rate=0.05, seed=5))
        .observe(observer)
        .build()
    )
    cluster.start()
    cluster.run(0.06)
    assert set(cluster.states().values()) == {"operational"}
    for host in cluster.hosts.values():
        for index in range(20):
            host.submit(
                payload_size=120,
                service=DeliveryService.SAFE if index % 4 == 0 else DeliveryService.AGREED,
            )
    cluster.run(0.2)

    cluster.checker.check()
    checker_deliveries = sum(
        1
        for trace in cluster.checker.traces.values()
        for event in trace
        if isinstance(event, MessageDelivery)
    )
    assert checker_deliveries > 0
    snap = observer.snapshot()
    assert snap["counters"]["deliver.messages"] == checker_deliveries


def test_lossy_sim_run_produces_full_metrics_snapshot(tmp_path):
    """An 8-node lossy bare-engine run yields rotation/latency histograms
    and retransmission counters, and the snapshot survives a JSON trip."""
    observer = MetricsObserver()
    cluster = (
        ClusterBuilder()
        .hosts(8)
        .loss(UniformLoss(rate=0.1, seed=3))
        .observe(observer)
        .build()
    )
    workload = FixedRateWorkload(payload_size=600, aggregate_rate_bps=1e8)
    workload.attach(cluster, start=0.001, stop=0.05)
    cluster.start()
    cluster.run(0.07)

    snap = observer.snapshot()
    assert snap["counters"]["retransmit.sent"] > 0
    assert snap["counters"]["retransmit.requested"] > 0
    assert snap["histograms"]["token.rotation_time"]["count"] > 0
    latency = snap["histograms"]["deliver.latency"]
    assert latency["count"] > 0
    assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]

    # Observer delivered count == what the hosts actually handed the app.
    delivered = sum(
        driver.stats.latency.count for driver in cluster.drivers.values()
    )
    assert snap["counters"]["deliver.messages"] >= delivered

    path = tmp_path / "metrics.json"
    path.write_text(to_json(snap))
    assert load_json(str(path)) == json.loads(to_json(snap))


def test_runtime_nodes_produce_metrics_snapshot():
    """A real 3-node asyncio ring with one shared observer produces a
    wall-clock metrics snapshot with both headline histograms."""
    observer = MetricsObserver()

    async def scenario():
        peers = ephemeral_ring_addresses(range(3))
        nodes = [
            RingNode(pid, peers, timeouts=FAST_TIMEOUTS, observer=observer)
            for pid in range(3)
        ]
        for node in nodes:
            await node.start()
        formed = await wait_until(
            lambda: all(len(node.members) == 3 for node in nodes)
        )
        assert formed, [node.members for node in nodes]
        try:
            for node in nodes:
                for index in range(10):
                    node.submit(payload=f"{node.pid}:{index}".encode())
            done = await wait_until(
                lambda: all(len(node.delivered) >= 30 for node in nodes)
            )
            assert done, [len(node.delivered) for node in nodes]
            return observer.snapshot()
        finally:
            await stop_all(nodes)

    snap = asyncio.run(scenario())
    assert snap["counters"]["deliver.messages"] >= 90
    assert snap["counters"]["token.received"] > 0
    assert snap["histograms"]["token.rotation_time"]["count"] > 0
    latency = snap["histograms"]["deliver.latency"]
    assert latency["count"] >= 90
    assert latency["max"] < 10.0  # sane wall-clock latencies
    assert snap["counters"]["membership.ring_installs"] >= 3
    json.dumps(snap)  # JSON-exportable

"""Integration tests for multi-ring sharded ordering.

These drive real clusters (full membership stacks per ring on one
simulated fabric) through the topology API and check the §11 promises:
per-shard EVS, subscriber-identical merge, and ring-count invariance
of per-group streams.
"""

import pytest

from repro.conformance.multiring import (
    ShardedWorkload,
    explore_sharded,
    run_sharded,
    run_sharded_differential,
)
from repro.multiring import ShardMap
from repro.sim.build import ClusterBuilder
from repro.util.errors import ConfigurationError

#: Small-but-representative workload: six groups span both rings at
#: N=2 (and all four at N=4) under the CRC map.
WORKLOAD = ShardedWorkload(
    num_groups=6, messages_per_group=4, hosts_per_ring=4, spacing=0.004
)


def test_two_ring_cluster_boots_converges_and_orders():
    cluster = ClusterBuilder().rings(2).hosts(4).membership().build_multiring()
    cluster.start()
    cluster.run(0.1)
    assert cluster.converged()
    for index in range(3):
        cluster.submit("chat", f"m{index}".encode())
    cluster.run(0.3)
    ring = cluster.ring_of("chat")
    for pid in cluster.ring(ring).live_pids():
        stream = cluster.group_stream(ring, pid, groups={"chat"})
        assert [payload for _, payload in stream] == [b"m0", b"m1", b"m2"]
    assert cluster.check_evs() == {}


def test_groups_actually_shard_across_rings():
    cluster = ClusterBuilder().rings(2).hosts(4).membership().build_multiring()
    shards = {cluster.ring_of(g) for g in WORKLOAD.groups()}
    assert shards == {0, 1}


def test_sharded_run_vantage_identical_merge():
    run = run_sharded(2, WORKLOAD)
    assert run.converged
    assert run.evs_violations == {}
    assert run.deliveries == 6 * 4
    merged = list(run.merged_streams.values())
    assert len(merged) >= 2
    for other in merged[1:]:
        assert other == merged[0]


@pytest.fixture(scope="module")
def differential_report():
    """One (1, 2)-ring differential shared by the assertions below."""
    return run_sharded_differential(WORKLOAD, ring_counts=(1, 2))


def test_per_group_streams_identical_across_ring_counts(differential_report):
    report = differential_report
    assert report.ok, report.to_json()
    assert report.deliveries == {"rings-1": 24, "rings-2": 24}
    assert report.converged == {"rings-1": True, "rings-2": True}
    # At one ring everything maps to ring 0; at two, both rings carry load.
    assert set(report.shards["rings-1"].values()) == {0}
    assert set(report.shards["rings-2"].values()) == {0, 1}


def test_differential_report_round_trips_through_json(differential_report):
    from repro.conformance.multiring import ShardedReport

    restored = ShardedReport.from_json(differential_report.to_json())
    assert restored.to_json() == differential_report.to_json()


def test_explicit_assignments_override_hashing_end_to_end():
    # "pinned" hashes to ring 1 at N=2; the explicit pin must win.
    assert ShardMap(2).shard_of("pinned") == 1
    cluster = (
        ClusterBuilder()
        .rings(2)
        .hosts(4)
        .membership()
        .assign("pinned", 0)
        .build_multiring()
    )
    assert cluster.ring_of("pinned") == 0


def test_per_shard_evs_clean_under_depth1_fault():
    # One representative depth-1 case inline (the full grid runs in the
    # nightly explorer): crash+recover on ring 0 must leave both rings'
    # EVS clean and the cluster reconverged.
    from repro.conformance.multiring import _depth1_plan

    plan = _depth1_plan("crash-recover", pid=0, at=0.05)
    run = run_sharded(2, WORKLOAD, plan=plan, plan_ring=0)
    assert run.converged
    assert run.evs_violations == {}
    # The untouched ring's groups are delivered in full.
    untouched = [g for g, ring in run.shard_of.items() if ring == 1]
    for group in untouched:
        assert len(run.group_streams[group]) == WORKLOAD.messages_per_group


def test_explore_sharded_smoke_token_drop():
    report = explore_sharded(
        num_rings=2,
        workload=ShardedWorkload(
            num_groups=6, messages_per_group=2, hosts_per_ring=4
        ),
        kinds=("token-drop",),
        anchors=(0.5,),
    )
    assert len(report.cases) == 2  # one per ring
    assert report.ok, report.to_json()


def test_protocol_mode_scaling_is_near_linear():
    # Deterministic scaling proof: N saturated rings process ~N× the
    # events and ~N× the aggregate goodput of one ring (same per-ring
    # size, same workload per ring).  Wall-clock is irrelevant here —
    # the simulator is single-threaded; capacity is what shards buy.
    from repro.bench.tables import ring_count_window

    results = {n: ring_count_window(n) for n in (1, 2, 4)}
    events = {n: results[n]["events_processed"] for n in results}
    goodput = {n: results[n]["goodput_mbps"] for n in results}
    assert events[2] >= 1.7 * events[1]
    assert events[4] > events[2]
    assert goodput[2] >= 1.7 * goodput[1]
    assert goodput[4] > goodput[2]


def test_submit_rejected_in_protocol_mode():
    cluster = ClusterBuilder().rings(2).hosts(2).protocol().build_multiring()
    with pytest.raises(ConfigurationError):
        cluster.submit("chat", b"x")


def test_differential_requires_two_ring_counts():
    with pytest.raises(ConfigurationError):
        run_sharded_differential(WORKLOAD, ring_counts=(2,))

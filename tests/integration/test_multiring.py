"""Integration tests for multi-ring sharded ordering.

These drive real clusters (full membership stacks per ring on one
simulated fabric) through the topology API and check the §11 promises:
per-shard EVS, subscriber-identical merge, and ring-count invariance
of per-group streams.
"""

import pytest

from repro.conformance.differ import run_differential
from repro.conformance.multiring import (
    DEPTH1_STEPS,
    ShardedWorkload,
    explore_grid,
    run_sharded,
)
from repro.faults.generator import build_plan
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
    return run_differential(WORKLOAD, variants=("rings-1", "rings-2"))


def test_per_group_streams_identical_across_ring_counts(differential_report):
    report = differential_report
    assert report.ok, report.to_json()
    assert report.deliveries == {"rings-1": 24, "rings-2": 24}
    assert report.converged == {"rings-1": True, "rings-2": True}
    # Every ring's deliveries were watched for coverage.
    assert report.coverage.hit("coverage.deliver.messages") > 0


def test_a_mismatched_vantage_and_a_dirty_ring_are_the_runs_own_divergences(
    monkeypatch,
):
    from repro.conformance import differ

    real_run_sharded = differ.run_sharded
    truncated = []

    def tampered(num_rings, *args, **kwargs):
        run = real_run_sharded(num_rings, *args, **kwargs)
        if num_rings == 2:
            # One vantage of one group loses its last delivery, and one
            # ring's EVS checker objects.
            per_pid = run.vantage_streams[sorted(run.vantage_streams)[0]]
            pid = sorted(per_pid)[-1]
            per_pid[pid] = per_pid[pid][:-1]
            truncated.append(pid)
            run.evs_violations[1] = "gap at ring 1"
        return run

    monkeypatch.setattr(differ, "run_sharded", tampered)
    report = run_differential(WORKLOAD, variants=("rings-1", "rings-2"))
    assert not report.ok
    assert {(d.kind, d.variant_b) for d in report.divergences} == {
        ("missing", f"rings-2/pid{truncated[0]}"),
        ("evs", "rings-2/ring1"),
    }


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
    plan = build_plan(DEPTH1_STEPS["crash-recover"](50, 0), WORKLOAD.hosts_per_ring)
    run = run_sharded(2, WORKLOAD, plan=plan, plan_ring=0)
    assert run.converged
    assert run.evs_violations == {}
    # The untouched ring's groups are delivered in full.
    untouched = [g for g, ring in run.shard_of.items() if ring == 1]
    for group in untouched:
        assert len(run.group_streams[group]) == WORKLOAD.messages_per_group


def test_explore_grid_smoke_token_drop():
    report = explore_grid(
        num_rings=2,
        workload=ShardedWorkload(
            num_groups=6, messages_per_group=2, hosts_per_ring=4
        ),
        kinds=("token-drop",),
        anchors=(0.5,),
    )
    assert [case.ring for case in report.cases] == [0, 1]  # one per ring
    assert report.ok, report.to_json()
    assert report.enumerated == report.ran == 2
    # Coverage is merged over both runs: the dropped token is visible.
    assert report.coverage.hit("coverage.fault.token_drop") == 2
    assert report.coverage.hit("coverage.membership.token_loss") > 0
    assert report.coverage.hit("coverage.deliver.messages") > 0


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
        run_differential(WORKLOAD, variants=("rings-2",))

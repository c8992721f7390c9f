"""The drive-and-converge steps and the cluster surface they run over.

``repro.faults.drive`` holds the only polling loop in the package, and
every cluster shape answers ``converged`` / ``quiesce`` / ``accepting``
once; the runners built on them are pinned end to end by
``tests/integration/test_scenario_digests.py``.
"""

import pytest

from repro.apps.kv.cluster import KvCluster
from repro.faults.drive import BOOT, boot, poll, wait_converged
from repro.sim.build import ClusterBuilder
from repro.util.errors import FaultError


class CountingCluster:
    """Stands in for a cluster: counts runs, converges after ``after``."""

    def __init__(self, after=None):
        self.after = after
        self.runs = []

    def run(self, duration):
        self.runs.append(duration)

    def converged(self):
        return self.after is not None and len(self.runs) >= self.after


def test_poll_already_true_spends_no_simulated_time():
    cluster = CountingCluster(after=0)
    assert poll(cluster, cluster.converged, 0.25, 12) is True
    assert cluster.runs == []


@pytest.mark.parametrize("k", [1, 5, 12])
def test_poll_true_after_k_slices_runs_exactly_k(k):
    cluster = CountingCluster(after=k)
    assert wait_converged(cluster, 0.25, 12) is True
    assert cluster.runs == [0.25] * k


def test_poll_never_true_runs_every_slice_and_reports_false():
    cluster = CountingCluster()
    assert wait_converged(cluster, 0.05, 59) is False
    assert cluster.runs == [0.05] * 59


@pytest.mark.parametrize("after", [None, 1, 2, 30, 60, 61])
def test_run_first_n_polls_equal_one_run_then_check_first_n_minus_1(after):
    """The oracles' historical loop — run a slice, *then* check, at most
    60 times — is one ``run`` followed by ``poll(..., 59)``."""

    def run_first(cluster, slice, polls):
        for _ in range(polls):
            cluster.run(slice)
            if cluster.converged():
                return True
        return False

    old, new = CountingCluster(after), CountingCluster(after)
    verdict = run_first(old, 0.05, 60)
    new.run(0.05)
    assert wait_converged(new, 0.05, 59) is verdict
    assert new.runs == old.runs


def test_boot_starts_the_cluster_and_returns_the_time_base():
    cluster = ClusterBuilder().hosts(3).membership().build()
    assert boot(cluster) == cluster.sim.now == BOOT
    assert cluster.converged()


# ----------------------------------------------------------------------
# converged / quiesce / accepting on each cluster shape
# ----------------------------------------------------------------------


def single():
    cluster = ClusterBuilder().hosts(4).membership().build()
    boot(cluster)
    return cluster


def multi():
    cluster = ClusterBuilder().rings(2).hosts(3).membership().build()
    boot(cluster)
    return cluster


def kv():
    cluster = KvCluster(rings=2, hosts_per_ring=3, partitions=4)
    boot(cluster)
    assert wait_converged(cluster, 0.25, 16)
    return cluster


def test_single_ring_converged_means_live_pids_share_their_own_ring():
    cluster = single()
    assert cluster.converged()
    cluster.crash(3)
    assert not cluster.converged()  # survivors still list pid 3
    assert wait_converged(cluster, 0.05, 59)
    assert set(cluster.rings().values()) == {(0, 1, 2)}
    cluster.partition({0, 1}, {2})
    cluster.run(0.5)
    assert not cluster.converged()  # two operational rings, not one


def test_single_ring_quiesce_heals_resumes_and_restarts():
    cluster = single()
    cluster.partition({0, 1}, {2, 3})
    cluster.pause(1)
    cluster.crash(3)
    cluster.run(0.3)
    cluster.quiesce(restart={3})
    assert cluster.live_pids() == [0, 1, 2, 3]
    assert all(cluster.accepting(pid) for pid in range(4))
    assert wait_converged(cluster, 0.05, 59)
    assert cluster.checker.violation(crashed={3}) is None


def test_single_ring_quiesce_without_restart_leaves_crashes_down():
    cluster = single()
    cluster.crash(2)
    cluster.quiesce()
    assert cluster.live_pids() == [0, 1, 3]


def test_quiesce_is_idempotent_and_free_on_a_healthy_cluster():
    for cluster in (single(), multi(), kv()):
        assert cluster.converged()
        before = cluster.sim.pending_events
        cluster.quiesce()
        cluster.quiesce()
        assert cluster.sim.pending_events == before
        assert cluster.converged()


def test_multiring_converged_is_every_ring_and_quiesce_restarts_per_ring():
    cluster = multi()
    cluster.ring(1).crash(2)
    cluster.ring(0).pause(0)
    # A stalled process still looks operational; the crash does not.
    assert cluster.ring(0).converged() and not cluster.ring(1).converged()
    assert not cluster.converged()
    cluster.quiesce(restart={1: {2}})
    assert cluster.ring(1).live_pids() == [0, 1, 2]
    assert cluster.accepting(0, 0)
    cluster.run(0.05)
    assert wait_converged(cluster, 0.05, 59)
    assert cluster.check_evs(crashed={1: {2}}) == {}


def test_kv_quiesce_restarts_and_converged_waits_for_serving_replicas():
    cluster = kv()
    cluster.ring(0).crash(1)
    cluster.run(0.2)
    cluster.quiesce(restart={0: {1}})
    assert cluster.net.ring(0).live_pids() == [0, 1, 2]
    # Membership alone is not enough: the restarted replica must resync.
    assert not cluster.converged()
    assert wait_converged(cluster, 0.25, 16)
    assert cluster.stores_converged()


def test_accepting_follows_crash_pause_resume_restart():
    cluster = single()
    assert cluster.accepting(1)
    cluster.pause(1)
    assert not cluster.accepting(1)
    cluster.resume(1)
    assert cluster.accepting(1)
    cluster.crash(1)
    assert not cluster.accepting(1)
    cluster.pause(1)  # pausing a crashed host is a no-op
    cluster.restart(1)
    assert cluster.accepting(1)
    with pytest.raises(FaultError, match="unknown pid 9"):
        cluster.accepting(9)


def test_multiring_submit_drops_what_the_daemon_cannot_accept():
    cluster = multi()
    group = "g0"
    ring, sender = cluster.ring_of(group), cluster.sender_of(group)
    cluster.ring(ring).pause(sender)
    cluster.submit(group, b"lost")
    cluster.ring(ring).resume(sender)
    cluster.submit(group, b"kept")
    cluster.run(0.1)
    assert [payload for _, payload in cluster.group_stream(ring, sender)] == [b"kept"]

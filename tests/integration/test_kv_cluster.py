"""Integration tests: the KV store on the live multi-ring stream.

These drive real :class:`~repro.apps.kv.cluster.KvCluster` instances —
full ordering stack underneath — through the fault library, and check
the three subsystem promises end to end: store convergence, EVS
cleanliness, and linearizability of the observed history.
"""

import pytest

from repro.apps.kv.chaos import SCENARIOS, run_kv_scenario
from repro.apps.kv.cluster import KvCluster
from repro.apps.kv.commands import CommandError, decode_command
from repro.apps.kv.store import KvStore
from repro.apps.kv.wal import frame_record
from repro.faults.drive import wait_converged
from repro.faults.injector import FaultInjector
from repro.faults.plan import PlanBuilder
from repro.obs.observer import MetricsObserver
from repro.workloads.generators import BurstWorkload, FixedRateWorkload
from tests.integration.test_scenario_digests import assert_digest, kv_key

_BOOT = 0.08


def make_kv(**overrides):
    params = dict(rings=2, hosts_per_ring=4, partitions=8, snapshot_every=8)
    params.update(overrides)
    kv = KvCluster(**params)
    kv.start()
    kv.run(_BOOT)
    return kv


def settle(kv, slices=16, dt=0.25):
    return wait_converged(kv, dt, slices)


def cross_shard_snapshot(kv, groups, vantage):
    """A read-only store built from the deterministic cross-shard merge
    order — the state a subscriber of ``groups`` computes.

    Every vantage yields the identical store (the §11 merge guarantee).
    Fault-free only: the merge reads raw delivered streams, so it does
    not apply the primary-component filtering replicas do under
    partitions.
    """
    store = KvStore()
    for group, payload in kv.net.merged_stream(list(groups), vantage=vantage):
        store.apply(group, decode_command(payload))
    return store


class TestFaultFree:
    def test_ops_complete_and_linearize(self):
        kv = make_kv()
        client = kv.client(0)
        client.put("alpha", b"1")
        client.put("beta", b"2")
        client.get("alpha")
        client.cas("alpha", b"1", b"one")
        other = kv.client(1)
        other.get("alpha")
        other.delete("beta")
        kv.run(0.5)
        assert kv.history.incomplete == 0
        assert kv.stores_converged()
        result = kv.check_linearizability()
        assert result.ok and result.decided

    def test_transaction_applies_atomically_everywhere(self):
        kv = make_kv()
        client = kv.client(0)
        key = "txn-anchor"
        group = kv.group_of(key)
        # Find sibling keys in the same partition (same trick the
        # workload generator uses).
        siblings, probe = [], 0
        while len(siblings) < 2:
            candidate = f"{key}~{probe}"
            if kv.group_of(candidate) == group:
                siblings.append(candidate)
            probe += 1
        from repro.apps.kv.commands import put as put_op

        client.transact([put_op(key, b"a")] + [put_op(k, b"b") for k in siblings])
        kv.run(0.5)
        assert kv.history.incomplete == 0
        for (ring, pid), replica in kv.replicas.items():
            if group in kv.ring_groups(ring):
                assert replica.store.value(group, key) == b"a"
                for k in siblings:
                    assert replica.store.value(group, k) == b"b"

    def test_cross_partition_transaction_rejected(self):
        kv = make_kv()
        client = kv.client(0)
        from repro.apps.kv.commands import put as put_op

        # Find two keys in different partitions.
        key_a = "a0"
        key_b = next(
            f"b{i}" for i in range(64) if kv.group_of(f"b{i}") != kv.group_of(key_a)
        )
        with pytest.raises(CommandError):
            client.transact([put_op(key_a, b"1"), put_op(key_b, b"2")])

    def test_cross_shard_snapshot_matches_replicas(self):
        kv = make_kv()
        client = kv.client(0)
        for index in range(12):
            client.put(f"key{index}", b"%d" % index)
        kv.run(0.5)
        merged = cross_shard_snapshot(kv, kv.groups(), vantage=0)
        reference = kv.replicas[(0, 0)].store
        for group in kv.ring_groups(0):
            assert merged.digest([group]) == reference.digest([group])


class TestAcceptance:
    """ISSUE acceptance: crash between WAL append and apply of a txn."""

    def test_crash_mid_transaction_recovers_and_converges(self):
        report = run_kv_scenario("kv-crash-mid-txn", seed=0)
        assert report.ok, report.violations
        assert report.stores_converged
        assert report.evs_violations == {}
        assert report.linearizability["ok"]
        assert report.linearizability["decided"]
        # The victim actually died and actually recovered.
        victim = report.counters["replicas"]["r0p2"]
        assert victim["recoveries"] >= 1

    def test_wal_covered_the_crash_window(self):
        """Drive the armed crash by hand and inspect the replica: the
        WAL must hold the fatal command that memory never applied, and
        recovery must replay it exactly once."""
        kv = make_kv(snapshot_every=1000)  # keep everything in the WAL
        kv.run(0.3)
        settle(kv)
        client = kv.client(0)
        for index in range(6):
            client.put(f"warm{index}", b"x")
        kv.run(0.3)

        victim = kv.replicas[(0, 2)]
        applied_before = victim.store.total_applied()
        kv.ring(0).arm_crash_after_append(2)
        client.put("fatal", b"boom")
        kv.run(0.3)
        assert not victim.alive
        # Durable medium: WAL has everything ordered to this replica,
        # including the fatal command memory never saw.
        from repro.apps.kv.replica import recover_store

        recovered, replayed = recover_store(victim.durable)
        assert recovered.total_applied() > applied_before

        kv.ring(0).restart(2)
        assert settle(kv)
        assert kv.stores_converged()
        assert kv.check_evs() == {}
        result = kv.check_linearizability()
        assert result.ok and result.decided


class TestRingFaultSurface:
    def test_crash_takes_replica_and_host_and_waives_the_incarnation(self):
        kv = make_kv()
        assert settle(kv)
        ring = kv.ring(0)
        ring.crash(1)
        assert not kv.replicas[(0, 1)].alive
        assert kv.net.ring(0).hosts[1].host.crashed
        waived = []
        check_evs = kv.net.check_evs

        def spy(crashed=None):
            waived.append({index: set(pids) for index, pids in crashed.items()})
            return check_evs(crashed=crashed)

        kv.net.check_evs = spy
        kv.run(0.3)
        assert kv.check_evs() == {}
        assert waived == [{0: {1}}]
        ring.restart(1)
        assert settle(kv)
        assert kv.stores_converged()


    def test_injected_faults_reach_the_clusters_observer(self):
        observer = MetricsObserver()
        kv = make_kv(rings=2, hosts_per_ring=3, partitions=4, observer=observer)
        assert settle(kv)
        base = kv.sim.now
        plan = PlanBuilder().crash(1, at=base + 0.01).recover(1, at=base + 0.1).build()
        injector = FaultInjector(kv.ring(0), plan).arm()
        kv.run(0.3)
        assert [entry["kind"] for entry in injector.applied] == ["crash", "recover"]
        counters = observer.snapshot()["counters"]
        assert counters["fault.crashes"] == 1
        assert counters["fault.recoveries"] == 1


class TestOrderedCommandPath:
    def test_each_command_is_decoded_once_per_ring(self, monkeypatch):
        """Every replica of a ring is handed the same ordered bytes; the
        ring parses them once and its replicas apply the one command."""
        applied = []
        apply = KvStore.apply

        def spy(store, group, command):
            applied.append(command)
            return apply(store, group, command)

        monkeypatch.setattr(KvStore, "apply", spy)
        kv = make_kv(snapshot_every=1000)
        assert settle(kv)
        for client_id in range(4):
            client = kv.client(client_id)
            for index in range(10):
                client.put(f"c{client_id}k{index}", b"v%d" % index)
            client.get(f"c{client_id}k0")
        kv.run(0.5)
        assert kv.history.completed == len(kv.history) == 44
        assert len(applied) == 44 * kv.hosts_per_ring
        assert len({id(command) for command in applied}) == 44
        for (ring, pid), replica in kv.replicas.items():
            # Each replica logged the bytes it was handed, as ordered.
            delivered = kv.net.taps[ring].labels(pid)
            assert len(delivered) == replica.applies > 0
            assert replica.wal.storage.read() == b"".join(
                frame_record(group, payload) for group, payload in delivered
            )


class TestScenarioLibrary:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_passes(self, name):
        report = run_kv_scenario(name, seed=1)
        assert report.ok, report.violations
        assert_digest(kv_key(name), report.to_dict())

    def test_reports_are_deterministic(self):
        a = run_kv_scenario("kv-crash-mid-txn", seed=2)
        b = run_kv_scenario("kv-crash-mid-txn", seed=2)
        assert a.to_json() == b.to_json()

    def test_seeds_vary_the_workload(self):
        a = run_kv_scenario("kv-partition", seed=0)
        b = run_kv_scenario("kv-partition", seed=1)
        assert a.history["ops"] != b.history["ops"] or a.to_json() != b.to_json()


class TestPartitionSemantics:
    def test_minority_commands_never_applied(self):
        kv = make_kv()
        settle(kv)
        kv.ring(0).partition({0, 1, 2}, {3})
        kv.run(0.4)
        # A client homed on the minority host submits into the void.
        minority_client = kv.client(3)
        minority_client.put("doomed", b"x")
        kv.run(0.4)
        kv.ring(0).heal()
        assert settle(kv)
        assert kv.stores_converged()
        result = kv.check_linearizability()
        assert result.ok and result.decided

    def test_full_ring_outage_elects_longest_wal(self):
        report = run_kv_scenario("kv-ring-outage", seed=0)
        assert report.ok, report.violations
        assert report.counters["elections_held"] >= 1


class TestWorkloadAttach:
    """Satellite: protocol-level workloads attach to MultiRingCluster."""

    def test_fixed_rate_attaches_to_multiring(self):
        kv = make_kv()
        now = kv.sim.now
        workload = FixedRateWorkload(payload_size=200, aggregate_rate_bps=2_000_000)
        workload.attach(kv.net, start=now, stop=now + 0.05)
        kv.run(0.1)
        assert workload.messages_injected > 0

    def test_burst_attaches_to_multiring(self):
        kv = make_kv()
        now = kv.sim.now
        workload = BurstWorkload(payload_size=100, burst_size=4,
                                 burst_interval=0.02)
        workload.attach(kv.net, start=now, stop=now + 0.04)
        kv.run(0.1)
        # 8 hosts x 2 bursts x 4 messages
        assert workload.messages_injected == 64

"""Unit tests for the fault injector and the injection points it uses."""

import pytest

from repro.faults import FaultInjector, PlanBuilder
from repro.net.host import Cpu
from repro.net.simulator import Simulator
from repro.obs.observer import MetricsObserver
from repro.sim.build import ClusterBuilder
from repro.util.errors import FaultError


def booted(n=3, observer=None):
    cluster = ClusterBuilder().hosts(n).membership().observe(observer).build()
    cluster.start()
    cluster.run(0.08)
    return cluster


class TestCpuStall:
    def test_stall_defers_queued_work_until_resume(self):
        sim = Simulator()
        cpu = Cpu(sim)
        ran = []
        cpu.submit(1e-6, lambda: ran.append("a"))
        sim.run_until_idle()
        assert ran == ["a"]
        cpu.stall()
        cpu.submit(1e-6, lambda: ran.append("b"))
        sim.run_until_idle()
        assert ran == ["a"]  # stalled: nothing runs
        cpu.resume()
        sim.run_until_idle()
        assert ran == ["a", "b"]

    def test_resume_without_stall_is_noop(self):
        cpu = Cpu(Simulator())
        cpu.resume()
        assert not cpu.stalled


class TestClusterFaultSurface:
    def test_crash_is_idempotent(self):
        cluster = booted(3)
        cluster.crash(1)
        cluster.crash(1)  # no error
        assert 1 not in cluster.live_pids()

    def test_restart_of_live_pid_is_noop(self):
        cluster = booted(3)
        controller = cluster.hosts[0].controller
        cluster.restart(0)
        assert cluster.hosts[0].controller is controller

    def test_unknown_pid_raises_fault_error(self):
        cluster = booted(2)
        with pytest.raises(FaultError, match="unknown pid"):
            cluster.crash(9)
        with pytest.raises(FaultError, match="unknown pid"):
            cluster.restart(9)
        with pytest.raises(FaultError, match="unknown pid"):
            cluster.pause(9)

    def test_pause_defers_timers_until_resume(self):
        cluster = booted(2)
        host = cluster.hosts[1]
        cluster.pause(1)
        # Run well past the token-loss timeout: timers fire but are deferred.
        cluster.run(0.02)
        assert host._paused
        assert host._deferred_timers
        cluster.resume(1)
        assert not host._paused
        assert not host._deferred_timers

    def test_pause_is_idempotent_and_crash_clears_it(self):
        cluster = booted(2)
        cluster.pause(0)
        cluster.pause(0)
        cluster.crash(0)
        assert not cluster.hosts[0]._paused

    def test_ring_cluster_surface(self):
        cluster = ClusterBuilder().hosts(3).build()
        cluster.start()
        cluster.run(0.002)
        cluster.pause(1)
        assert cluster.topology.host(1).cpu.stalled
        cluster.resume(1)
        assert not cluster.topology.host(1).cpu.stalled
        cluster.crash(2)
        cluster.crash(2)  # idempotent
        with pytest.raises(FaultError, match="unknown pid"):
            cluster.crash(9)


class TestInjector:
    def test_events_apply_in_plan_order_at_equal_times(self):
        cluster = booted(3)
        plan = (
            PlanBuilder()
            .partition({0}, {1, 2}, at=0.01)
            .heal(at=0.01)
            .crash(2, at=0.01)
            .build()
        )
        injector = FaultInjector(cluster, plan).arm()
        cluster.run(0.02)
        assert [entry["kind"] for entry in injector.applied] == [
            "partition",
            "heal",
            "crash",
        ]

    def test_arm_twice_rejected(self):
        cluster = booted(2)
        injector = FaultInjector(cluster, PlanBuilder().build())
        injector.arm()
        with pytest.raises(FaultError, match="already armed"):
            injector.arm()

    def test_plan_validated_against_cluster_size(self):
        cluster = booted(2)
        plan = PlanBuilder().crash(7, at=0.01).build()
        with pytest.raises(FaultError, match="out of range"):
            FaultInjector(cluster, plan)

    def test_partition_installs_switch_filter_state(self):
        cluster = booted(4)
        plan = PlanBuilder().partition({0, 1}, {2, 3}, at=0.005).build()
        FaultInjector(cluster, plan).arm()
        cluster.run(0.05)
        assert cluster.topology.switch.frames_partitioned > 0
        rings = cluster.rings()
        # Partitioned sides must not see each other's frames; by 50ms
        # each side is reforming or reformed without the other.
        assert all(set(ring) <= {0, 1} or set(ring) <= {2, 3} for ring in rings.values())

    def test_token_drop_filters_exactly_count_tokens(self):
        cluster = booted(2)
        plan = PlanBuilder().token_drop(at=0.005, count=3).build()
        FaultInjector(cluster, plan).arm()
        cluster.run(0.1)
        assert cluster.topology.switch.frames_filtered == 3
        # The ring recovered from the drops via the token-loss timeout.
        assert set(cluster.states().values()) == {"operational"}

    def test_loss_burst_intercepts_then_uninstalls(self):
        cluster = booted(3)
        plan = PlanBuilder().loss_burst(at=0.001, duration=0.05, rate=1.0, pids={1}).build()
        FaultInjector(cluster, plan).arm()
        cluster.run(0.002)  # enter the burst window
        for host in cluster.hosts.values():
            host.submit(payload_size=64)
        cluster.run(0.02)
        victim = cluster.topology.host(1)
        assert victim.frames_intercepted > 0
        cluster.run(0.2)
        assert not victim._interceptors  # burst expired and uninstalled
        assert cluster.topology.host(0).frames_intercepted == 0

    def test_recover_unsupported_without_membership(self):
        cluster = ClusterBuilder().hosts(3).build()
        cluster.start()
        plan = PlanBuilder().crash(1, at=0.001).recover(1, at=0.002).build()
        FaultInjector(cluster, plan).arm()
        with pytest.raises(FaultError, match="no membership layer"):
            cluster.run(0.01)

    def test_crash_after_append_needs_a_write_ahead_log(self):
        cluster = booted(3)
        plan = PlanBuilder().crash_after_append(1, at=0.001).build()
        FaultInjector(cluster, plan).arm()
        with pytest.raises(FaultError, match="no write-ahead log"):
            cluster.run(0.01)

    def test_observer_counts_faults(self):
        observer = MetricsObserver()
        cluster = booted(4, observer=observer)
        plan = (
            PlanBuilder()
            .crash(3, at=0.005)
            .partition({0, 1}, {2}, at=0.01)
            .heal(at=0.03)
            .recover(3, at=0.05)
            .token_drop(at=0.06, count=2)
            .loss_burst(at=0.07, duration=0.01, rate=0.5)
            .pause(1, at=0.09)
            .resume(1, at=0.1)
            .build()
        )
        FaultInjector(cluster, plan, observer=observer).arm()
        cluster.run(0.2)
        counters = observer.snapshot()["counters"]
        assert counters["fault.crashes"] == 1
        assert counters["fault.recoveries"] == 1
        assert counters["fault.partitions"] == 1
        assert counters["fault.heals"] == 1
        assert counters["fault.token_drops"] == 2
        assert counters["fault.loss_bursts"] == 1
        assert counters["fault.pauses"] == 1
        assert counters["fault.resumes"] == 1
        assert observer.snapshot()["gauges"]["fault.partitions_active"] == 0

    def test_same_seed_same_applied_log(self):
        def run(seed):
            cluster = booted(3)
            plan = (
                PlanBuilder()
                .loss_burst(at=0.002, duration=0.05, rate=0.3)
                .crash(2, at=0.02)
                .recover(2, at=0.1)
                .build()
            )
            injector = FaultInjector(cluster, plan, seed=seed).arm()
            for host in cluster.hosts.values():
                host.submit(payload_size=64)
            cluster.run(0.5)
            return injector.applied, [
                (pid, len(host.delivered)) for pid, host in sorted(cluster.hosts.items())
            ]

        assert run(11) == run(11)

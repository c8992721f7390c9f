"""Unit tests for the correlated rack-power-loss fault event."""

import pytest

from repro.faults import FaultInjector, FaultPlan, PlanBuilder
from repro.faults.events import RackPowerLoss, event_from_dict
from repro.net.fabric import LeafSpineSpec
from repro.sim.build import ClusterBuilder
from repro.util.errors import FaultError


def _fabric_cluster(racks=2, hosts_per_rack=2):
    cluster = (
        ClusterBuilder()
        .hosts(racks * hosts_per_rack)
        .membership()
        .fabric(LeafSpineSpec(racks=racks, hosts_per_rack=hosts_per_rack))
        .build_membership()
    )
    cluster.start()
    cluster.run(0.08)
    return cluster


def _star_cluster(hosts=4):
    cluster = ClusterBuilder().hosts(hosts).membership().build_membership()
    cluster.start()
    cluster.run(0.08)
    return cluster


class TestEvent:
    def test_dict_round_trip_with_pids(self):
        event = RackPowerLoss(at=0.05, rack=1, pids=frozenset({4, 5}))
        back = event_from_dict(event.to_dict())
        assert back == event
        assert isinstance(back.pids, frozenset)

    def test_dict_round_trip_wildcard(self):
        event = RackPowerLoss(at=0.05, rack=0)
        assert event_from_dict(event.to_dict()) == event

    def test_negative_rack_rejected(self):
        with pytest.raises(FaultError):
            RackPowerLoss(at=0.0, rack=-1).validate()

    def test_explicit_empty_pids_rejected(self):
        with pytest.raises(FaultError):
            RackPowerLoss(at=0.0, rack=0, pids=frozenset()).validate()


class TestPlan:
    def test_builder_and_crashed_pids(self):
        plan = (
            PlanBuilder()
            .rack_power_loss(1, at=0.03, pids={2, 3})
            .recover(2, at=0.2)
            .recover(3, at=0.25)
            .build(num_hosts=4)
        )
        assert plan.crashed_pids() == {2, 3}
        assert plan.pids() >= {2, 3}

    def test_rack_loss_of_crashed_pid_rejected(self):
        builder = (
            PlanBuilder()
            .crash(2, at=0.01)
            .rack_power_loss(1, at=0.03, pids={2, 3})
        )
        with pytest.raises(FaultError, match="already crashed"):
            builder.build(num_hosts=4)

    def test_wildcard_relaxes_recover_check(self):
        # pids=None can only be resolved by the injector, so a recover of
        # a rack member must not be rejected up front.
        plan = (
            PlanBuilder()
            .rack_power_loss(1, at=0.03)
            .recover(2, at=0.2)
            .build(num_hosts=4)
        )
        assert len(plan) == 2

    def test_recover_before_any_crash_still_rejected(self):
        builder = PlanBuilder().recover(1, at=0.1).rack_power_loss(0, at=0.2, pids={0})
        with pytest.raises(FaultError, match="never"):
            builder.build(num_hosts=4)

    def test_json_round_trip(self):
        plan = PlanBuilder().rack_power_loss(0, at=0.03, pids={0, 1}).build()
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestInjector:
    def test_explicit_pids_crash_on_star(self):
        cluster = _star_cluster(4)
        plan = PlanBuilder().rack_power_loss(1, at=0.01, pids={2, 3}).build(
            num_hosts=4
        )
        injector = FaultInjector(cluster, plan).arm()
        cluster.run(0.05)
        assert set(cluster.live_pids()) == {0, 1}
        assert injector.applied[0]["kind"] == "rack_power_loss"
        assert injector.applied[0]["pids"] == [2, 3]

    def test_wildcard_resolves_from_fabric_rack_map(self):
        cluster = _fabric_cluster(racks=2, hosts_per_rack=2)
        plan = PlanBuilder().rack_power_loss(1, at=0.01).build(num_hosts=4)
        injector = FaultInjector(cluster, plan).arm()
        cluster.run(0.05)
        assert set(cluster.live_pids()) == {0, 1}
        assert injector.applied[0]["pids"] == [2, 3]

    def test_wildcard_on_star_raises(self):
        # The star is the one-rack fabric: rack 0 is every host, and
        # there is no rack 1.
        cluster = _star_cluster(4)
        plan = PlanBuilder().rack_power_loss(0, at=0.01).build(num_hosts=4)
        injector = FaultInjector(cluster, plan).arm()
        cluster.run(0.05)
        assert injector.applied[0]["pids"] == [0, 1, 2, 3]
        assert set(cluster.live_pids()) == set()
        cluster = _star_cluster(4)
        plan = PlanBuilder().rack_power_loss(1, at=0.01).build(num_hosts=4)
        FaultInjector(cluster, plan).arm()
        with pytest.raises(FaultError, match=r"rack 1 not in the fabric rack map \(racks \[0\]\)"):
            cluster.run(0.05)

    def test_unknown_rack_raises(self):
        cluster = _fabric_cluster(racks=2, hosts_per_rack=2)
        plan = PlanBuilder().rack_power_loss(9, at=0.01).build(num_hosts=4)
        FaultInjector(cluster, plan).arm()
        with pytest.raises(FaultError, match="rack 9"):
            cluster.run(0.05)

    def test_rack_recovers_and_rejoins(self):
        cluster = _fabric_cluster(racks=2, hosts_per_rack=2)
        plan = (
            PlanBuilder()
            .rack_power_loss(1, at=0.01, pids={2, 3})
            .recover(2, at=0.15)
            .recover(3, at=0.2)
            .build(num_hosts=4)
        )
        FaultInjector(cluster, plan).arm()
        cluster.run(1.2)
        assert set(cluster.live_pids()) == {0, 1, 2, 3}
        rings = set(cluster.rings().values())
        assert len(rings) == 1
        cluster.checker.check(crashed=plan.crashed_pids())

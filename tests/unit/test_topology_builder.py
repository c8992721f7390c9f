"""Unit tests for the TopologySpec / ClusterBuilder construction API."""

import pytest

from repro.core.config import ProtocolConfig
from repro.multiring.cluster import MultiRingCluster
from repro.net.params import TEN_GIGABIT
from repro.net.simulator import Simulator
from repro.sim.build import ClusterBuilder, TopologySpec
from repro.sim.cluster import RingCluster
from repro.sim.membership_driver import DeliveryTap, MembershipCluster
from repro.sim.profiles import DAEMON, LIBRARY
from repro.util.errors import ConfigurationError


def test_build_dispatches_to_ring_cluster():
    cluster = ClusterBuilder().hosts(4).build()
    assert isinstance(cluster, RingCluster)
    assert sorted(cluster.drivers) == [0, 1, 2, 3]


def test_build_dispatches_to_membership_cluster():
    cluster = ClusterBuilder().hosts(4).membership().build()
    assert isinstance(cluster, MembershipCluster)
    assert sorted(cluster.hosts) == [0, 1, 2, 3]


def test_build_dispatches_to_multiring_cluster():
    cluster = ClusterBuilder().rings(2).hosts(4).membership().build()
    assert isinstance(cluster, MultiRingCluster)
    assert cluster.num_rings == 2


def test_spec_is_immutable_and_builder_accumulates():
    builder = ClusterBuilder().rings(2).hosts(3)
    spec = builder.spec
    builder.hosts(5)
    assert spec.hosts_per_ring == 3  # old snapshot unchanged
    assert builder.spec.hosts_per_ring == 5
    assert isinstance(spec, TopologySpec)


def test_profile_defaults_resolve_per_mode():
    assert TopologySpec(membership=True).resolved_profile() is DAEMON
    assert TopologySpec(membership=False).resolved_profile() is LIBRARY
    assert TopologySpec(profile=DAEMON).resolved_profile() is DAEMON


def test_assign_and_assignments_merge():
    builder = (
        ClusterBuilder().rings(2).assign("hot", 1).assign("cold", 0)
    )
    shard_map = builder.shard_map()
    assert shard_map.shard_of("hot") == 1
    assert shard_map.shard_of("cold") == 0


def test_on_builds_onto_shared_simulator():
    sim = Simulator()
    a = ClusterBuilder().hosts(2).on(sim).build_ring()
    b = ClusterBuilder().hosts(2).on(sim).build_ring()
    assert a.sim is sim and b.sim is sim


def test_validate_rejects_bad_specs():
    with pytest.raises(ConfigurationError):
        ClusterBuilder().rings(0).build()
    with pytest.raises(ConfigurationError):
        ClusterBuilder().hosts(0).build()
    with pytest.raises(ConfigurationError):
        ClusterBuilder().rings(2).assign("g", 2).build()
    with pytest.raises(ConfigurationError):
        # Taps need the membership delivery path.
        ClusterBuilder().hosts(2).tap(DeliveryTap()).build()
    with pytest.raises(ConfigurationError):
        ClusterBuilder().rings(2).hosts(2).membership().tap(DeliveryTap()).build()


def test_fabric_spec_validation():
    from repro.net.fabric import FabricTopology, LeafSpineSpec
    from repro.net.impair import ReorderModel

    # fabric() adopts the fabric's host count.
    builder = ClusterBuilder().fabric(LeafSpineSpec(racks=2, hosts_per_rack=3))
    assert builder.spec.hosts_per_ring == 6
    cluster = builder.membership().build()
    assert isinstance(cluster.topology, FabricTopology)
    with pytest.raises(ConfigurationError):
        # A fabric spec that fails its own validation.
        TopologySpec(
            fabric=LeafSpineSpec(racks=0, hosts_per_rack=2), hosts_per_ring=0
        ).validate()
    with pytest.raises(ConfigurationError):
        # Host-count mismatch between fabric and cluster.
        (
            ClusterBuilder()
            .fabric(LeafSpineSpec(racks=2, hosts_per_rack=2))
            .hosts(5)
            .build()
        )
    with pytest.raises(ConfigurationError):
        # Fabrics are single-ring for now.
        (
            ClusterBuilder()
            .fabric(LeafSpineSpec(racks=2, hosts_per_rack=2))
            .rings(2)
            .membership()
            .build()
        )
    with pytest.raises(ConfigurationError):
        # Impairments don't span multi-ring clusters.
        (
            ClusterBuilder()
            .rings(2)
            .hosts(2)
            .membership()
            .impair(ReorderModel(rate=0.1))
            .build()
        )


def test_fabric_none_resets_to_star():
    from repro.net.fabric import LeafSpineSpec

    builder = ClusterBuilder().fabric(LeafSpineSpec(racks=2, hosts_per_rack=2))
    builder.fabric(None)
    assert builder.spec.fabric is None


def test_builder_threads_network_and_config():
    config = ProtocolConfig(personal_window=11, accelerated_window=11)
    cluster = (
        ClusterBuilder().hosts(2).network(TEN_GIGABIT).config(config).build_ring()
    )
    participant = cluster.drivers[0].participant
    assert participant.config.personal_window == 11


def test_adverse_network_splits_hosts_evenly_over_a_2_to_1_fabric():
    spec = ClusterBuilder().hosts(8).adverse_network(2, "reorder", seed=5).spec
    assert (spec.fabric.racks, spec.fabric.hosts_per_rack) == (2, 4)
    assert spec.fabric.oversubscription == 2.0
    assert spec.hosts_per_ring == 8
    assert spec.impairment is not None


def test_adverse_network_defaults_leave_the_star_untouched():
    spec = ClusterBuilder().hosts(5).adverse_network(0, "").spec
    assert spec.fabric is None and spec.impairment is None
    assert spec.hosts_per_ring == 5


def test_adverse_network_rejects_hosts_that_do_not_fill_the_racks():
    # Silently rounding 5 hosts down to 2x2 left plans and traffic
    # addressing a pid the cluster does not have.
    with pytest.raises(ConfigurationError, match="5 hosts .* 2 racks"):
        ClusterBuilder().hosts(5).adverse_network(2)

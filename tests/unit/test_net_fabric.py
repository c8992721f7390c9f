"""Unit tests for the leaf–spine fabric topology."""

import pytest

from repro.net.fabric import FabricTopology, LeafSpineSpec, build_topology
from repro.net.packet import Frame, PortKind
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.net.simulator import Simulator


def _spec(**overrides):
    base = dict(racks=2, hosts_per_rack=2, oversubscription=2.0)
    base.update(overrides)
    return LeafSpineSpec(**base)


def _build(sim, spec, **models):
    return build_topology(sim, spec.num_hosts, GIGABIT, fabric=spec, **models)


def _data(src, dst=None, size=500, payload="x"):
    return Frame(src=src, dst=dst, kind=PortKind.DATA, size=size, payload=payload)


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------


def test_spec_geometry_helpers():
    spec = LeafSpineSpec(racks=3, hosts_per_rack=4)
    assert spec.num_hosts == 12
    assert spec.rack_of(0) == 0
    assert spec.rack_of(7) == 1
    assert spec.rack_members(2) == (8, 9, 10, 11)


@pytest.mark.parametrize(
    "overrides",
    [
        {"racks": 0},
        {"hosts_per_rack": 0},
        {"oversubscription": 0.0},
        {"oversubscription": -1.0},
        {"rack_params": (GIGABIT,)},  # 1 entry for 2 racks
        {"rack_trunk_extra_propagation": (0.0, 1e-6, 2e-6)},
    ],
)
def test_spec_validation_rejects(overrides):
    with pytest.raises(ValueError):
        _spec(**overrides).validate()


def test_trunk_rate_derived_from_oversubscription():
    spec = LeafSpineSpec(racks=2, hosts_per_rack=4, oversubscription=2.0)
    trunk = spec.trunk_params_for(0, GIGABIT)
    assert trunk.rate_bps == GIGABIT.rate_bps * 4 / 2.0


def test_explicit_trunk_params_override_derivation():
    spec = _spec(trunk_params=TEN_GIGABIT)
    assert spec.trunk_params_for(0, GIGABIT).rate_bps == TEN_GIGABIT.rate_bps


def test_trunk_extra_propagation_is_per_rack():
    spec = _spec(rack_trunk_extra_propagation=(0.0, 5e-6))
    near = spec.trunk_params_for(0, GIGABIT)
    far = spec.trunk_params_for(1, GIGABIT)
    assert far.propagation == near.propagation + 5e-6


def test_mixed_speed_rack_params():
    spec = _spec(rack_params=(GIGABIT, TEN_GIGABIT))
    assert spec.host_params_for(0, GIGABIT).rate_bps == GIGABIT.rate_bps
    assert spec.host_params_for(1, GIGABIT).rate_bps == TEN_GIGABIT.rate_bps
    # The trunk derives from that rack's own host speed.
    assert (
        spec.trunk_params_for(1, GIGABIT).rate_bps
        == TEN_GIGABIT.rate_bps * 2 / 2.0
    )


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def test_intra_rack_unicast_stays_off_the_trunk():
    sim = Simulator()
    topo = _build(sim, _spec())
    topo.host(0).nic.send(_data(0, dst=1))
    sim.run_until_idle()
    assert len(topo.host(1).data_socket) == 1
    assert topo.switch.frames_transited == 0


def test_cross_rack_unicast_transits_the_spine():
    sim = Simulator()
    topo = _build(sim, _spec())
    topo.host(0).nic.send(_data(0, dst=3))
    sim.run_until_idle()
    assert len(topo.host(3).data_socket) == 1
    assert topo.switch.frames_transited == 1


def test_multicast_reaches_everyone_but_the_sender():
    sim = Simulator()
    topo = _build(sim, LeafSpineSpec(racks=2, hosts_per_rack=4, oversubscription=2.0))
    topo.host(0).nic.send(_data(0))
    sim.run_until_idle()
    assert len(topo.host(0).data_socket) == 0
    for host_id in range(1, 8):
        assert len(topo.host(host_id).data_socket) == 1, host_id


def test_cross_rack_multicast_takes_longer_than_local():
    sim = Simulator()
    topo = _build(sim, _spec())
    arrivals = {}

    real = {pid: topo.host(pid).receive for pid in (1, 2)}
    for pid in (1, 2):
        topo.switch._leaves[topo.spec.rack_of(pid)]._ports[pid]._deliver = (
            lambda frame, pid=pid: arrivals.setdefault(pid, sim.now)
            or real[pid](frame)
        )
    topo.host(0).nic.send(_data(0))
    sim.run_until_idle()
    assert arrivals[1] < arrivals[2]  # local rack beats cross-rack


def test_single_rack_fabric_has_no_trunks():
    sim = Simulator()
    topo = _build(sim, LeafSpineSpec(racks=1, hosts_per_rack=3))
    with pytest.raises(ValueError):
        topo.switch.trunk(0)
    topo.host(0).nic.send(_data(0))
    sim.run_until_idle()
    assert len(topo.host(1).data_socket) == 1
    assert len(topo.host(2).data_socket) == 1
    assert topo.switch.frames_transited == 0


# ----------------------------------------------------------------------
# Fault surface
# ----------------------------------------------------------------------


def test_partition_blocks_cross_group_frames_and_counts():
    sim = Simulator()
    topo = _build(sim, _spec())
    topo.switch.set_partition({0, 1}, {2, 3})
    topo.host(0).nic.send(_data(0))
    sim.run_until_idle()
    assert len(topo.host(1).data_socket) == 1
    assert len(topo.host(2).data_socket) == 0
    assert len(topo.host(3).data_socket) == 0
    assert topo.switch.frames_partitioned == 2
    topo.switch.heal()
    topo.host(0).nic.send(_data(0))
    sim.run_until_idle()
    assert len(topo.host(2).data_socket) == 1


def test_filter_consulted_once_per_destination():
    sim = Simulator()
    spec = LeafSpineSpec(racks=2, hosts_per_rack=4, oversubscription=2.0)
    topo = _build(sim, spec)
    checks = []

    def drop_all(frame, dst):
        checks.append(dst)
        return True

    topo.switch.add_filter(drop_all)
    topo.host(0).nic.send(_data(0))
    sim.run_until_idle()
    assert sorted(checks) == list(range(1, 8))  # once per destination
    assert topo.switch.frames_filtered == 7
    topo.switch.remove_filter(drop_all)
    topo.host(0).nic.send(_data(0))
    sim.run_until_idle()
    assert len(topo.host(7).data_socket) == 1


#: The paper's star (one rack) and a two-rack fabric whose multicast
#: crosses the uplink, the spine and the remote leaf.
ONE_FRAME_FABRICS = [
    LeafSpineSpec(racks=1, hosts_per_rack=8),
    LeafSpineSpec(racks=2, hosts_per_rack=4),
]


def _queued(topo, host_id):
    return list(topo.host(host_id).data_socket._frames)


@pytest.mark.parametrize("spec", ONE_FRAME_FABRICS, ids=["one-rack", "two-racks"])
def test_a_multicast_is_one_frame_object_in_every_receivers_socket(spec):
    sim = Simulator()
    topo = _build(sim, spec)
    sent = _data(1)
    topo.host(1).nic.send(sent)
    sim.run_until_idle()
    assert _queued(topo, 1) == []
    for host_id in set(range(8)) - {1}:
        (queued,) = _queued(topo, host_id)
        assert queued is sent, host_id
    assert sent.dst is None  # nothing on the way rewrote the frame


@pytest.mark.parametrize("spec", ONE_FRAME_FABRICS, ids=["one-rack", "two-racks"])
def test_no_copy_reaches_a_receiver_cut_by_a_partition_or_a_filter(spec):
    sim = Simulator()
    topo = _build(sim, spec)
    topo.switch.set_partition({0, 1, 2, 4, 5}, {3, 6, 7})
    topo.switch.add_filter(lambda frame, dst: dst == 5)
    sent = _data(1)
    topo.host(1).nic.send(sent)
    sim.run_until_idle()
    for host_id in (0, 2, 4):
        (queued,) = _queued(topo, host_id)
        assert queued is sent, host_id
    for host_id in (1, 3, 5, 6, 7):
        assert _queued(topo, host_id) == [], host_id
    assert topo.switch.frames_partitioned == 3
    assert topo.switch.frames_filtered == 1


def test_rack_map_exposed_for_correlated_faults():
    topo = _build(Simulator(), LeafSpineSpec(racks=2, hosts_per_rack=4))
    assert topo.racks == {0: (0, 1, 2, 3), 1: (4, 5, 6, 7)}
    assert topo.host_ids == list(range(8))


def test_oversubscribed_trunk_queues_under_incast():
    # Every host in rack 0 multicasts at once: the shared trunk must
    # queue (the incast signal) while host ports barely do.
    sim = Simulator()
    spec = LeafSpineSpec(racks=2, hosts_per_rack=4, oversubscription=4.0)
    topo = _build(sim, spec)
    for pid in range(4):
        for _ in range(4):
            topo.host(pid).nic.send(_data(pid, size=1400))
    sim.run_until_idle()
    assert topo.switch.peak_trunk_queue_bytes > 0
    for pid in range(4, 8):
        assert len(topo.host(pid).data_socket) == 16


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


def test_build_topology_defaults_to_star():
    # The paper's star is the one-rack fabric: one leaf, no trunks.
    topo = build_topology(Simulator(), 4, GIGABIT)
    assert isinstance(topo, FabricTopology)
    assert topo.spec == LeafSpineSpec(racks=1, hosts_per_rack=4)
    assert topo.racks == {0: (0, 1, 2, 3)}
    with pytest.raises(ValueError, match="no trunks"):
        topo.switch.trunk(0)


def test_build_topology_with_fabric_spec():
    topo = build_topology(Simulator(), 4, GIGABIT, fabric=_spec())
    assert isinstance(topo, FabricTopology)
    assert topo.spec == _spec()
    assert len(topo.switch.trunk(1)) == 2


def test_build_topology_rejects_host_count_mismatch():
    with pytest.raises(ValueError):
        build_topology(Simulator(), 5, GIGABIT, fabric=_spec())

"""Unit tests for the buffered switch: the one-rack fabric's leaf."""

import pytest

from repro.net.fabric import Fabric, LeafSpineSpec
from repro.net.packet import Frame, PortKind
from repro.net.params import GIGABIT, NetworkParams
from repro.net.simulator import Simulator
from repro.util.units import usec


def build_switch(num_hosts=3, params=GIGABIT):
    sim = Simulator()
    switch = Fabric(sim, LeafSpineSpec(racks=1, hosts_per_rack=num_hosts), params)
    inboxes = {h: [] for h in range(num_hosts)}
    for host in range(num_hosts):
        switch.attach(host, inboxes[host].append)
    return sim, switch, inboxes


def ingress(switch, arrived):
    """A frame has fully arrived from its sender's NIC."""
    switch.leaf_ingress(arrived.src)(arrived)


def frame(src, dst, size=1000, kind=PortKind.DATA):
    return Frame(src=src, dst=dst, kind=kind, size=size, payload=f"p{src}")


def test_unicast_reaches_only_destination():
    sim, switch, inboxes = build_switch()
    ingress(switch, frame(0, 2))
    sim.run_until_idle()
    assert len(inboxes[2]) == 1
    assert inboxes[0] == [] and inboxes[1] == []


def test_multicast_reaches_all_but_sender():
    sim, switch, inboxes = build_switch()
    ingress(switch, frame(1, None))
    sim.run_until_idle()
    assert len(inboxes[0]) == 1 and len(inboxes[2]) == 1
    assert inboxes[1] == []


def test_unicast_to_self_loops_back():
    # A singleton ring passes the token to itself through the switch.
    sim, switch, inboxes = build_switch()
    ingress(switch, frame(0, 0, kind=PortKind.TOKEN))
    sim.run_until_idle()
    assert len(inboxes[0]) == 1


def test_unknown_destination_raises():
    sim, switch, _ = build_switch()
    ingress(switch, frame(0, 99))
    with pytest.raises(KeyError):
        sim.run_until_idle()


def test_forwarding_delay_includes_store_and_forward():
    sim, switch, inboxes = build_switch()
    ingress(switch, frame(0, 1, size=1500))
    sim.run_until_idle()
    # switch latency + egress serialization + propagation
    expected = (
        GIGABIT.switch_latency
        + GIGABIT.serialization_delay(1500)
        + GIGABIT.propagation
    )
    assert sim.now == pytest.approx(expected)


def test_output_port_serializes_fifo():
    sim, switch, inboxes = build_switch()
    ingress(switch, frame(0, 1, size=1500))
    ingress(switch, frame(2, 1, size=100))
    sim.run_until_idle()
    sizes = [f.size for f in inboxes[1]]
    assert sizes == [1500, 100]  # first in, first out despite size


def test_buffer_overflow_drops_tail():
    params = NetworkParams(
        rate_bps=1e9,
        switch_latency=usec(1),
        propagation=usec(0.3),
        switch_buffer_bytes=3000,
        socket_buffer_bytes=1 << 20,
    )
    sim, switch, inboxes = build_switch(params=params)
    for _ in range(10):
        ingress(switch, frame(0, 1, size=1400))
    sim.run_until_idle()
    port = switch.port(1)
    assert port.frames_dropped > 0
    assert len(inboxes[1]) + port.frames_dropped == 10
    assert switch.total_drops == port.frames_dropped


def test_peak_queue_tracked():
    sim, switch, _ = build_switch()
    for _ in range(5):
        ingress(switch, frame(0, 1, size=1000))
    sim.run_until_idle()
    assert switch.port(1).peak_queue_bytes >= 1000


def test_partition_blocks_cross_group_traffic():
    sim, switch, inboxes = build_switch()
    switch.set_partition({0, 1}, {2})
    ingress(switch, frame(0, None))
    ingress(switch, frame(2, 1))
    sim.run_until_idle()
    assert len(inboxes[1]) == 1  # multicast from 0 reached group mate
    assert inboxes[2] == []  # but not across the partition
    assert switch.frames_partitioned == 2


def test_heal_restores_connectivity():
    sim, switch, inboxes = build_switch()
    switch.set_partition({0}, {1, 2})
    ingress(switch, frame(0, 1))
    sim.run_until_idle()
    assert inboxes[1] == []
    switch.heal()
    ingress(switch, frame(0, 1))
    sim.run_until_idle()
    assert len(inboxes[1]) == 1


def test_unlisted_hosts_form_implicit_group():
    sim, switch, inboxes = build_switch(num_hosts=4)
    switch.set_partition({0, 1})  # 2 and 3 unlisted
    ingress(switch, frame(2, 3))
    sim.run_until_idle()
    assert len(inboxes[3]) == 1


def test_double_attach_rejected():
    sim, switch, _ = build_switch()
    with pytest.raises(ValueError):
        switch.attach(0, lambda f: None)

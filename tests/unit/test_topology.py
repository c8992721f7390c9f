"""Unit tests for the topology builder's default: the one-rack star."""

import pytest

from repro.net.fabric import build_topology
from repro.net.loss import UniformLoss
from repro.net.packet import Frame, PortKind
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.net.simulator import Simulator


def test_builds_requested_hosts():
    sim = Simulator()
    topo = build_topology(sim, 8, GIGABIT)
    assert topo.host_ids == list(range(8))
    assert topo.host(3).host_id == 3


def test_zero_hosts_rejected():
    with pytest.raises(ValueError):
        build_topology(Simulator(), 0, GIGABIT)


def test_hosts_wired_through_switch():
    sim = Simulator()
    topo = build_topology(sim, 3, TEN_GIGABIT)
    topo.host(0).nic.send(
        Frame(src=0, dst=None, kind=PortKind.DATA, size=500, payload="x")
    )
    sim.run_until_idle()
    assert len(topo.host(1).data_socket) == 1
    assert len(topo.host(2).data_socket) == 1
    assert len(topo.host(0).data_socket) == 0


def test_shared_loss_model_applied():
    sim = Simulator()
    loss = UniformLoss(rate=0.9999999, seed=2)
    topo = build_topology(sim, 2, GIGABIT, loss_model=loss)
    topo.host(0).nic.send(
        Frame(src=0, dst=None, kind=PortKind.DATA, size=500, payload="x")
    )
    sim.run_until_idle()
    assert len(topo.host(1).data_socket) == 0
    assert topo.host(1).frames_lost_to_model == 1


def test_params_attached():
    topo = build_topology(Simulator(), 2, TEN_GIGABIT)
    assert topo.params.rate_bps == TEN_GIGABIT.rate_bps
    assert topo.host(0).params.mtu == 1500

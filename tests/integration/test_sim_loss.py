"""Integration tests under injected loss (paper §IV-A4)."""

import pytest

from repro.core.messages import DeliveryService
from repro.net.loss import PositionalLoss, UniformLoss
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import DAEMON
from repro.util.units import Mbps
from repro.workloads.generators import FixedRateWorkload
from tests.unit.test_loss import ScriptedLoss


def run_lossy(accelerated, loss_model, rate=200, params=TEN_GIGABIT,
              service=DeliveryService.AGREED, duration=0.08, num_hosts=8):
    cluster = (
        ClusterBuilder()
        .hosts(num_hosts)
        .accelerated(accelerated)
        .profile(DAEMON)
        .network(params)
        .loss(loss_model)
        .build()
    )
    workload = FixedRateWorkload(payload_size=1350, aggregate_rate_bps=Mbps(rate),
                                 service=service)
    workload.attach(cluster, start=0.001, stop=duration)
    cluster.start()
    cluster.run(duration + 0.05)
    return cluster, workload


@pytest.mark.parametrize("accelerated", [False, True])
@pytest.mark.parametrize("loss_rate", [0.05, 0.20])
def test_all_messages_recovered_under_uniform_loss(accelerated, loss_rate):
    cluster, workload = run_lossy(accelerated, UniformLoss(loss_rate, seed=11))
    for driver in cluster.drivers.values():
        assert driver.participant.messages_delivered == workload.messages_injected
    assert cluster.aggregate().retransmissions > 0


@pytest.mark.parametrize("accelerated", [False, True])
def test_safe_delivery_survives_loss(accelerated):
    cluster, workload = run_lossy(
        accelerated, UniformLoss(0.10, seed=5), service=DeliveryService.SAFE
    )
    for driver in cluster.drivers.values():
        assert driver.participant.messages_delivered == workload.messages_injected


def test_positional_loss_recovers():
    loss = PositionalLoss(ring_order=list(range(8)), distance=4, rate=0.2, seed=3)
    cluster, workload = run_lossy(True, loss)
    for driver in cluster.drivers.values():
        assert driver.participant.messages_delivered == workload.messages_injected


def test_scripted_single_drop_costs_extra_round_accelerated():
    """The accelerated protocol requests a missing message one round after
    noticing it (paper §III-A): a single dropped message is retransmitted
    exactly once and delivered everywhere."""
    loss = ScriptedLoss(plan={3: {10}})
    cluster, workload = run_lossy(True, loss, rate=100, duration=0.05)
    assert loss.dropped.get(3) == [10]
    stats = cluster.aggregate()
    assert stats.retransmissions == 1
    for driver in cluster.drivers.values():
        assert driver.participant.messages_delivered == workload.messages_injected


def test_retransmission_rate_amplified_by_independent_receivers():
    """Paper: with independent per-daemon loss, the system-wide
    retransmission rate is a multiple of the per-daemon loss rate."""
    cluster, workload = run_lossy(True, UniformLoss(0.25, seed=13), rate=300)
    stats = cluster.aggregate()
    retrans_rate = stats.retransmissions / workload.messages_injected
    assert retrans_rate > 0.5  # far above the 25% per-daemon rate


def test_loss_increases_accelerated_agreed_latency_more_than_original():
    """Fig. 9's signature at 10 GbE: under loss the accelerated protocol's
    Agreed latency exceeds the original's (extra request round)."""
    accel, _ = run_lossy(True, UniformLoss(0.15, seed=2), rate=480)
    orig, _ = run_lossy(False, UniformLoss(0.15, seed=2), rate=480)
    assert accel.aggregate().mean_latency > orig.aggregate().mean_latency


def test_accelerated_still_wins_under_loss_on_1g():
    """Fig. 11: on 1 GbE the accelerated protocol's round-time advantage
    outweighs the extra retransmission round."""
    accel, _ = run_lossy(True, UniformLoss(0.15, seed=2), rate=140,
                         params=GIGABIT, service=DeliveryService.SAFE)
    orig, _ = run_lossy(False, UniformLoss(0.15, seed=2), rate=140,
                        params=GIGABIT, service=DeliveryService.SAFE)
    assert accel.aggregate().mean_latency < orig.aggregate().mean_latency


def test_worst_case_latency_reported():
    cluster, _ = run_lossy(True, UniformLoss(0.10, seed=4), rate=300)
    stats = cluster.aggregate()
    assert stats.per_sender_worst_5pct_mean > stats.mean_latency

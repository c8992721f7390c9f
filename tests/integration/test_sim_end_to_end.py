"""Integration tests: full simulated clusters running both protocols."""

import pytest

from repro.core.messages import DeliveryService
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import DAEMON, LIBRARY, SPREAD
from repro.util.units import Mbps
from repro.workloads.generators import FixedRateWorkload


def run_traffic(accelerated, profile=LIBRARY, params=GIGABIT, rate=200,
                service=DeliveryService.AGREED, num_hosts=8, duration=0.05,
                keep_logs=False):
    cluster = (
        ClusterBuilder()
        .hosts(num_hosts)
        .accelerated(accelerated)
        .profile(profile)
        .network(params)
        .build()
    )
    if keep_logs:
        for driver in cluster.drivers.values():
            driver.keep_delivered_log = True
    workload = FixedRateWorkload(payload_size=1350, aggregate_rate_bps=Mbps(rate),
                                 service=service)
    workload.attach(cluster, start=0.001, stop=duration)
    cluster.start()
    cluster.run(duration + 0.02)
    return cluster, workload


@pytest.mark.parametrize("accelerated", [False, True])
def test_every_injected_message_delivered_everywhere(accelerated):
    cluster, workload = run_traffic(accelerated)
    for driver in cluster.drivers.values():
        assert driver.participant.messages_delivered == workload.messages_injected


@pytest.mark.parametrize("accelerated", [False, True])
def test_total_order_identical_across_hosts(accelerated):
    cluster, _ = run_traffic(accelerated, keep_logs=True, num_hosts=4)
    logs = [
        [m.seq for m in driver.delivered_log] for driver in cluster.drivers.values()
    ]
    reference = logs[0]
    assert reference == sorted(reference)
    for log in logs[1:]:
        assert log == reference


@pytest.mark.parametrize("profile", [LIBRARY, DAEMON, SPREAD])
def test_all_profiles_sustain_traffic(profile):
    cluster, workload = run_traffic(True, profile=profile, rate=300)
    stats = cluster.aggregate()
    assert stats.goodput_bps == pytest.approx(Mbps(300), rel=0.15)
    assert stats.switch_drops == 0


def test_no_retransmissions_without_loss():
    cluster, _ = run_traffic(True, rate=500)
    assert cluster.aggregate().retransmissions == 0


def test_safe_messages_eventually_garbage_collected():
    cluster, workload = run_traffic(True, service=DeliveryService.SAFE, rate=100)
    for driver in cluster.drivers.values():
        buffer = driver.participant.buffer
        # nearly everything stable and discarded; only the tail may remain
        assert buffer.discarded_up_to > 0
        assert len(buffer) < 200


def test_accelerated_latency_beats_original_at_moderate_load_1g():
    """The paper's central claim, at one operating point."""
    _, _ = run_traffic(True)  # warm the code path
    accel, _ = run_traffic(True, profile=SPREAD, rate=500, duration=0.08)
    orig, _ = run_traffic(False, profile=SPREAD, rate=500, duration=0.08)
    accel_latency = accel.aggregate().mean_latency
    orig_latency = orig.aggregate().mean_latency
    assert accel_latency < orig_latency * 0.7


def test_original_beats_accelerated_safe_low_rate_10g():
    """Fig. 8's crossover: at 100 Mbps on 10 GbE, Safe delivery is faster
    under the original protocol (the accelerated aru lags a round)."""
    accel, _ = run_traffic(True, profile=SPREAD, params=TEN_GIGABIT, rate=100,
                           service=DeliveryService.SAFE, duration=0.08)
    orig, _ = run_traffic(False, profile=SPREAD, params=TEN_GIGABIT, rate=100,
                          service=DeliveryService.SAFE, duration=0.08)
    assert orig.aggregate().mean_latency < accel.aggregate().mean_latency


def test_token_keeps_rotating_when_idle():
    cluster = ClusterBuilder().hosts(4).build()
    cluster.start()
    cluster.run(0.02)
    first = cluster.aggregate().token_rounds
    cluster.run(0.02)
    assert cluster.aggregate().token_rounds > first


def test_large_payload_fragmentation_end_to_end():
    cluster = ClusterBuilder().hosts(4).profile(DAEMON).network(TEN_GIGABIT).build()
    workload = FixedRateWorkload(payload_size=8850, aggregate_rate_bps=Mbps(400))
    workload.attach(cluster, start=0.001, stop=0.03)
    cluster.start()
    cluster.run(0.05)
    for driver in cluster.drivers.values():
        assert driver.participant.messages_delivered == workload.messages_injected
        assert driver.reassembler.datagrams_completed > 0

"""Unit tests for workload generators."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.messages import DeliveryService
from repro.net.params import GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import LIBRARY
from repro.util.units import Mbps
from repro.workloads.generators import (
    BurstWorkload,
    ClosedLoopWorkload,
    FixedRateWorkload,
)
from repro.workloads.kv import DiurnalArrivals, KvOpMix, ZipfianKeys


def make_cluster(n=4):
    return ClusterBuilder().hosts(n).profile(LIBRARY).network(GIGABIT).build()


class TestFixedRateWorkload:
    def test_injection_count_matches_rate(self):
        cluster = make_cluster()
        workload = FixedRateWorkload(payload_size=1250, aggregate_rate_bps=Mbps(100))
        workload.attach(cluster, start=0.0, stop=0.1)
        cluster.start()
        cluster.run(0.11)
        # 100 Mbps of 1250-byte messages = 10000 msg/s -> ~1000 in 0.1 s
        assert 950 <= workload.messages_injected <= 1050

    def test_senders_share_rate_equally(self):
        cluster = make_cluster()
        workload = FixedRateWorkload(payload_size=1250, aggregate_rate_bps=Mbps(40))
        workload.attach(cluster, start=0.0, stop=0.05)
        cluster.start()
        cluster.run(0.06)
        counts = [driver.stats.messages_sent for driver in cluster.drivers.values()]
        assert max(counts) - min(counts) <= 1

    def test_poisson_mode_differs_but_similar_volume(self):
        cluster_a = make_cluster()
        uniform = FixedRateWorkload(payload_size=1250, aggregate_rate_bps=Mbps(100))
        uniform.attach(cluster_a, start=0.0, stop=0.1)
        cluster_a.start()
        cluster_a.run(0.11)
        cluster_b = make_cluster()
        poisson = FixedRateWorkload(payload_size=1250, aggregate_rate_bps=Mbps(100),
                                    poisson=True, seed=5)
        poisson.attach(cluster_b, start=0.0, stop=0.1)
        cluster_b.start()
        cluster_b.run(0.11)
        assert poisson.messages_injected == pytest.approx(uniform.messages_injected,
                                                          rel=0.25)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FixedRateWorkload(payload_size=0, aggregate_rate_bps=1.0)
        with pytest.raises(ValueError):
            FixedRateWorkload(payload_size=100, aggregate_rate_bps=0.0)

    def test_service_propagates(self):
        cluster = make_cluster(n=2)
        workload = FixedRateWorkload(
            payload_size=1000,
            aggregate_rate_bps=Mbps(10),
            service=DeliveryService.SAFE,
        )
        workload.attach(cluster, start=0.0, stop=0.01)
        cluster.start()
        cluster.run(0.05)
        delivered = cluster.driver(0).participant.messages_delivered
        assert delivered > 0
        assert cluster.driver(0).participant.buffer.discarded_up_to >= 0


class TestClosedLoopWorkload:
    def test_keeps_queues_topped_up(self):
        config = ProtocolConfig(personal_window=10, accelerated_window=10,
                                global_window=100)
        cluster = ClusterBuilder().hosts(2).profile(LIBRARY).config(config).build()
        workload = ClosedLoopWorkload(payload_size=1000, depth_factor=2)
        workload.attach(cluster, start=0.0, stop=0.01)
        cluster.start()
        cluster.run(0.005)
        pending = cluster.driver(0).participant.pending_count
        assert pending > 0
        assert workload.messages_injected > 20


class TestZipfianKeys:
    def test_deterministic_per_seed(self):
        a = ZipfianKeys(num_keys=1000, s=0.99, seed=7)
        b = ZipfianKeys(num_keys=1000, s=0.99, seed=7)
        assert a.draws(200) == b.draws(200)

    def test_seeds_differ(self):
        a = ZipfianKeys(num_keys=1000, seed=1)
        b = ZipfianKeys(num_keys=1000, seed=2)
        assert a.draws(100) != b.draws(100)

    def test_skew_concentrates_on_hot_keys(self):
        keys = ZipfianKeys(num_keys=10_000, s=0.99, seed=3)
        hot = set(keys.hottest(10))
        draws = keys.draws(2000)
        hot_fraction = sum(1 for key in draws if key in hot) / len(draws)
        # Zipf(0.99) puts roughly a third of the mass on the top 10
        # of 10k keys; uniform would put 0.1% there.
        assert hot_fraction > 0.15

    def test_uniform_when_s_zero(self):
        keys = ZipfianKeys(num_keys=100, s=0.0, seed=4)
        draws = keys.draws(5000)
        hot_fraction = sum(1 for key in draws if key in set(keys.hottest(10))) / 5000
        assert 0.05 < hot_fraction < 0.2  # ~0.1 expected

    def test_all_draws_in_keyspace(self):
        keys = ZipfianKeys(num_keys=50, seed=5)
        for key in keys.draws(500):
            assert 0 <= int(key[1:]) < 50

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianKeys(num_keys=0)
        with pytest.raises(ValueError):
            ZipfianKeys(num_keys=10, s=-1.0)


class TestDiurnalArrivals:
    def test_deterministic_per_seed(self):
        spec = dict(trough_rate=50.0, peak_rate=400.0, period=1.0, seed=9)
        assert DiurnalArrivals(**spec).times(1.0) == DiurnalArrivals(**spec).times(1.0)

    def test_rate_curve_hits_trough_and_peak(self):
        arrivals = DiurnalArrivals(trough_rate=100.0, peak_rate=500.0, period=2.0)
        assert arrivals.rate_at(0.0) == pytest.approx(100.0)
        assert arrivals.rate_at(1.0) == pytest.approx(500.0)  # mid-period peak

    def test_burst_window_multiplies_peak(self):
        arrivals = DiurnalArrivals(
            trough_rate=100.0, peak_rate=500.0, period=2.0,
            burst_factor=3.0, burst_width=0.2,
        )
        assert arrivals.rate_at(1.0) == pytest.approx(1500.0)
        assert arrivals.rate_at(0.5) < 500.0  # outside the window

    def test_volume_tracks_mean_rate(self):
        arrivals = DiurnalArrivals(trough_rate=200.0, peak_rate=200.0,
                                   period=1.0, seed=11)
        count = len(arrivals.times(5.0))
        assert count == pytest.approx(1000, rel=0.2)

    def test_times_sorted_and_bounded(self):
        arrivals = DiurnalArrivals(trough_rate=50.0, peak_rate=300.0,
                                   period=1.0, seed=12)
        times = arrivals.times(1.0)
        assert times == sorted(times)
        assert all(0.0 <= t < 1.0 for t in times)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(trough_rate=-1.0, peak_rate=10.0, period=1.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(trough_rate=10.0, peak_rate=5.0, period=1.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(trough_rate=1.0, peak_rate=2.0, period=0.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(trough_rate=1.0, peak_rate=2.0, period=1.0,
                            burst_factor=0.5)


class TestKvOpMix:
    def make_mix(self, **overrides):
        params = dict(keys=ZipfianKeys(num_keys=64, seed=1),
                      num_clients=4, seed=2)
        params.update(overrides)
        return KvOpMix(**params)

    def test_schedule_deterministic(self):
        times = [0.1, 0.2, 0.3, 0.4]
        assert self.make_mix().schedule(times) == self.make_mix().schedule(times)

    def test_schedule_shape(self):
        mix = self.make_mix(txn_weight=1.0, get_weight=0.0, put_weight=0.0,
                            delete_weight=0.0, cas_weight=0.0, txn_size=3)
        schedule = mix.schedule([0.5])
        assert schedule[0].kind == "txn"
        assert len(schedule[0].keys) == 3
        assert 0 <= schedule[0].client_id < 4

    def test_mix_roughly_matches_weights(self):
        mix = self.make_mix()
        schedule = mix.schedule([i / 1000 for i in range(1000)])
        gets = sum(1 for op in schedule if op.kind == "get")
        assert 0.6 < gets / 1000 < 0.8  # weight 0.70

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            self.make_mix(get_weight=-1.0).schedule([0.1])
        with pytest.raises(ValueError):
            self.make_mix(get_weight=0.0, put_weight=0.0, delete_weight=0.0,
                          cas_weight=0.0, txn_weight=0.0).schedule([0.1])


class TestBurstWorkload:
    def test_bursts_injected_at_interval(self):
        cluster = make_cluster(n=2)
        workload = BurstWorkload(payload_size=500, burst_size=10,
                                 burst_interval=0.01)
        workload.attach(cluster, start=0.0, stop=0.03)
        cluster.start()
        cluster.run(0.05)
        # 2 senders x 3 bursts x 10 messages
        assert workload.messages_injected == 60

    def test_invalid_burst_size(self):
        with pytest.raises(ValueError):
            BurstWorkload(payload_size=10, burst_size=0, burst_interval=0.1)

    def test_burst_messages_all_delivered(self):
        cluster = make_cluster(n=2)
        workload = BurstWorkload(payload_size=500, burst_size=5, burst_interval=0.02)
        workload.attach(cluster, start=0.0, stop=0.02)
        cluster.start()
        cluster.run(0.05)
        for driver in cluster.drivers.values():
            assert driver.participant.messages_delivered == 10


class TestMembershipClusterAttach:
    """Regression: every generator attaches to what
    ``ClusterBuilder().hosts(n).membership().build()`` returns (a
    single-ring MembershipCluster has no ``drivers`` attribute at all)."""

    @pytest.mark.parametrize(
        "workload",
        [
            FixedRateWorkload(payload_size=500, aggregate_rate_bps=Mbps(40)),
            BurstWorkload(payload_size=500, burst_size=5, burst_interval=0.005),
            ClosedLoopWorkload(payload_size=500),
        ],
        ids=["fixed-rate", "burst", "closed-loop"],
    )
    def test_attach_run_and_deliver_everything(self, workload):
        cluster = ClusterBuilder().hosts(3).membership().build()
        cluster.start()
        cluster.run(0.08)
        assert set(cluster.states().values()) == {"operational"}
        now = cluster.sim.now
        workload.attach(cluster, start=now + 0.001, stop=now + 0.011)
        cluster.run(0.06)
        assert workload.messages_injected > 0
        for host in cluster.hosts.values():
            assert len(host.delivered) == workload.messages_injected
        cluster.checker.check()

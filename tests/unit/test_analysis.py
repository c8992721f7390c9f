"""Unit tests for the trace-analysis package — and through it, the
paper's mechanism claims (§III-A)."""

import pytest

from repro.analysis import CpuAnalyzer, RoundAnalyzer, WireAnalyzer
from repro.analysis.wire import WireStats
from repro.core.config import ProtocolConfig
from repro.net.params import GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import SPREAD
from repro.util.units import Mbps
from repro.workloads.generators import FixedRateWorkload


def run_instrumented(accelerated, rate=500, duration=0.05):
    config = ProtocolConfig(
        personal_window=30,
        accelerated_window=30 if accelerated else 0,
        global_window=240,
    )
    cluster = (
        ClusterBuilder()
        .hosts(8)
        .accelerated(accelerated)
        .profile(SPREAD)
        .network(GIGABIT)
        .config(config)
        .build()
    )
    rounds = RoundAnalyzer()
    wire = WireAnalyzer()
    cpu = CpuAnalyzer()
    rounds.attach(cluster)
    wire.attach(cluster)
    cpu.attach(cluster)
    workload = FixedRateWorkload(payload_size=1350, aggregate_rate_bps=Mbps(rate))
    workload.attach(cluster, start=0.001, stop=duration)
    cluster.start()
    cluster.sim.run(until=0.01)
    cpu.mark()  # measure CPU over the steady-state portion
    cluster.run(duration - 0.01)
    return cluster, rounds, wire, cpu


class TestRoundAnalyzer:
    def test_rotation_times_positive_and_counted(self):
        _, rounds, _, _ = run_instrumented(True)
        stats = rounds.stats()
        assert stats.count > 50
        assert stats.mean > 0
        assert stats.quantile(0.5) <= stats.quantile(0.99)

    def test_accelerated_rounds_faster_under_load(self):
        """The paper's core mechanism: the token completes each rotation
        sooner in the accelerated protocol."""
        _, rounds_orig, _, _ = run_instrumented(False)
        _, rounds_accel, _, _ = run_instrumented(True)
        assert rounds_accel.stats().mean < rounds_orig.stats().mean * 0.75

    def test_empty_stats_raise(self):
        analyzer = RoundAnalyzer()
        with pytest.raises(ValueError):
            analyzer.stats().mean


class TestWireAnalyzer:
    def test_dead_air_fraction_bounded(self):
        _, _, wire, _ = run_instrumented(True)
        stats = wire.stats(0.01, 0.05)
        assert 0.0 <= stats.dead_air_fraction <= 1.0
        assert stats.busy_time + stats.idle_time == pytest.approx(stats.window)

    def test_accelerated_reduces_dead_air(self):
        """§III-A: the accelerated protocol "reduces or eliminates
        periods in which no participant is sending"."""
        _, _, wire_orig, _ = run_instrumented(False, rate=700)
        _, _, wire_accel, _ = run_instrumented(True, rate=700)
        orig = wire_orig.stats(0.01, 0.05).dead_air_fraction
        accel = wire_accel.stats(0.01, 0.05).dead_air_fraction
        assert accel < orig

    def test_invalid_window_rejected(self):
        analyzer = WireAnalyzer()
        with pytest.raises(ValueError):
            analyzer.stats(0.05, 0.05)

    def test_gap_accounting(self):
        stats = WireStats(window=1.0, busy_time=0.6, idle_time=0.4,
                          idle_gaps=[0.1, 0.3])
        assert stats.longest_gap == 0.3
        assert stats.dead_air_fraction == pytest.approx(0.4)


class TestCpuAnalyzer:
    def test_utilization_within_single_core(self):
        """§I: the service must not consume more than one core — by
        construction in the model, but the budget must have headroom at
        moderate rates."""
        _, _, _, cpu = run_instrumented(True, rate=500)
        stats = cpu.stats()
        assert 0.0 < stats.peak <= 1.0
        assert stats.mean < 0.9

    def test_mark_resets_window(self):
        cluster, _, _, cpu = run_instrumented(True, duration=0.03)
        cpu.mark()
        with pytest.raises(ValueError):
            cpu.stats()  # no time elapsed since mark
        cluster.run(0.01)
        assert cpu.stats().peak >= 0.0

"""Unit tests for the transmit ledger — and through it, the paper's
mechanism claims (§III-A)."""

import pytest

from repro.analysis.ledger import TransmitLedger, WireStats
from repro.core.config import ProtocolConfig
from repro.net.packet import PortKind
from repro.net.params import GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import LIBRARY, SPREAD
from repro.util.stats import percentile
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
    ledger = TransmitLedger(cluster.topology)
    workload = FixedRateWorkload(payload_size=1350, aggregate_rate_bps=Mbps(rate))
    workload.attach(cluster, start=0.001, stop=duration)
    cluster.start()
    cluster.sim.run(until=0.01)
    ledger.mark()  # measure CPU over the steady-state portion
    cluster.run(duration - 0.01)
    return cluster, ledger


class TestRotations:
    def test_rotation_times_positive_and_counted(self):
        _, ledger = run_instrumented(True)
        times = ledger.rotation_times(0)
        assert len(times) > 50
        assert ledger.mean_rotation(0) > 0
        assert percentile(times, 0.5) <= percentile(times, 0.99)

    def test_accelerated_rounds_faster_under_load(self):
        """The paper's core mechanism: the token completes each rotation
        sooner in the accelerated protocol."""
        _, orig = run_instrumented(False)
        _, accel = run_instrumented(True)
        assert accel.mean_rotation(0) < orig.mean_rotation(0) * 0.75

    def test_empty_stats_raise(self):
        ledger = TransmitLedger(ClusterBuilder().hosts(2).build().topology)
        with pytest.raises(ValueError):
            ledger.mean_rotation(0)


class TestDeadAir:
    def test_dead_air_fraction_bounded(self):
        _, ledger = run_instrumented(True)
        stats = ledger.wire_stats(0.01, 0.05)
        assert 0.0 <= stats.dead_air_fraction <= 1.0
        assert stats.busy_time + stats.idle_time == pytest.approx(stats.window)

    def test_accelerated_reduces_dead_air(self):
        """§III-A: the accelerated protocol "reduces or eliminates
        periods in which no participant is sending"."""
        _, orig_ledger = run_instrumented(False, rate=700)
        _, accel_ledger = run_instrumented(True, rate=700)
        orig = orig_ledger.wire_stats(0.01, 0.05).dead_air_fraction
        accel = accel_ledger.wire_stats(0.01, 0.05).dead_air_fraction
        assert accel < orig

    def test_invalid_window_rejected(self):
        ledger = TransmitLedger(ClusterBuilder().hosts(2).build().topology)
        with pytest.raises(ValueError):
            ledger.wire_stats(0.05, 0.05)

    def test_gap_accounting(self):
        stats = WireStats(window=1.0, busy_time=0.6, idle_time=0.4,
                          idle_gaps=[0.1, 0.3])
        assert stats.longest_gap == 0.3
        assert stats.dead_air_fraction == pytest.approx(0.4)


class TestCpuShare:
    def test_utilization_within_single_core(self):
        """§I: the service must not consume more than one core — by
        construction in the model, but the budget must have headroom at
        moderate rates."""
        _, ledger = run_instrumented(True, rate=500)
        shares = list(ledger.cpu_share().values())
        assert 0.0 < max(shares) <= 1.0
        assert sum(shares) / len(shares) < 0.9

    def test_mark_resets_window(self):
        cluster, ledger = run_instrumented(True, duration=0.03)
        ledger.mark()
        with pytest.raises(ValueError):
            ledger.cpu_share()  # no time elapsed since mark
        cluster.run(0.01)
        assert max(ledger.cpu_share().values()) >= 0.0


class TestWhatTheNicSees:
    def test_coalesced_datagram_shows_each_message_in_run_order(self):
        cluster = (
            ClusterBuilder()
            .hosts(3)
            .profile(LIBRARY)
            .config(ProtocolConfig(messages_per_datagram=4))
            .build()
        )
        ledger = TransmitLedger(cluster.topology)
        for _ in range(5):
            cluster.driver(0).client_submit(payload_size=100)
        cluster.start()
        cluster.run(0.002)
        # Seqs 1-4 ride one coalesced datagram, seq 5 one of its own,
        # both after the token (all five are post-token).
        assert cluster.driver(0).coalesced_datagrams == 1
        data = [
            [mark.seq for mark in row.marks]
            for row in ledger.rows
            if row.host == 0 and row.port is PortKind.DATA
        ]
        assert data == [[1, 2, 3, 4], [5]]
        assert ledger.sequence_of(0)[:6] == ["T5", "1", "2", "3", "4", "5"]

    def test_a_fragmented_datagram_is_one_entry_and_one_interval_per_fragment(self):
        cluster = ClusterBuilder().hosts(2).profile(LIBRARY).network(GIGABIT).build()
        ledger = TransmitLedger(cluster.topology)
        cluster.driver(0).client_submit(payload_size=4000)  # > the 1500 B MTU
        cluster.start()
        cluster.run(0.002)
        frames = [row for row in ledger.rows if row.port is PortKind.DATA]
        assert len(frames) == 3 and [row.first for row in frames] == [True, False, False]
        assert len({row.time for row in frames}) == 1
        assert [row.marks for row in frames[1:]] == [(), ()]
        assert [cell for cell in ledger.sequence_of(0) if not cell.startswith("T")] == ["1"]
        # One wire interval per fragment, each from the one enqueue
        # instant: the busy time is the longest (the first, MTU-sized).
        start = frames[0].time
        stats = ledger.wire_stats(start, start + 0.001)
        assert stats.busy_time == GIGABIT.serialization_delay(frames[0].size)
        assert frames[0].size == GIGABIT.mtu > frames[2].size

    def test_membership_rotations_survive_a_crash_and_recover(self):
        cluster = ClusterBuilder().hosts(4).membership().build_membership()
        ledger = TransmitLedger(cluster.topology)
        cluster.start()
        cluster.run(0.02)
        before = len(ledger.rotation_times(0))
        assert before > 10
        cluster.crash(3)
        crashed_at = cluster.sim.now
        cluster.run(0.05)
        # The ring re-forms without host 3 and its token keeps rotating;
        # the crashed host hands its NIC nothing.
        assert len(ledger.rotation_times(0)) > before
        assert not any(row.host == 3 and row.time > crashed_at for row in ledger.rows)
        cluster.restart(3)
        restarted_at = cluster.sim.now
        cluster.run(0.1)
        assert cluster.converged()
        # The recovered process is a fresh host on the same NIC: its
        # sends are recorded again, the regular token among them.
        assert any(
            row.host == 3 and row.time > restarted_at
            and row.port is PortKind.TOKEN and row.marks
            for row in ledger.rows
        )

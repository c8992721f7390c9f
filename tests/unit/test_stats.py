"""Unit tests for latency/throughput statistics."""

import pytest

from repro.core.messages import DataMessage, DeliveryService
from repro.util.stats import LatencyStats, RunStats, ThroughputMeter, percentile


def delivered(sender, latency, now=1.0, payload_size=1):
    """A message from ``sender`` submitted ``latency`` before ``now``."""
    return DataMessage(
        seq=1, pid=sender, round=1, service=DeliveryService.AGREED,
        payload=b"", timestamp=now - latency, payload_size=payload_size,
    )


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_fraction_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_single_sample(self):
        assert percentile([42.0], 0.99) == 42.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5.0, 1.0, 3.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 1.0) == 5.0

    def test_input_not_mutated(self):
        data = [3.0, 1.0, 2.0]
        percentile(data, 0.5)
        assert data == [3.0, 1.0, 2.0]


class TestLatencyStats:
    def test_mean(self):
        stats = LatencyStats()
        for value in (1.0, 2.0, 3.0):
            stats.record(value)
        assert stats.mean == pytest.approx(2.0)
        assert stats.count == 3
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0

    def test_negative_latency_rejected(self):
        stats = LatencyStats()
        with pytest.raises(ValueError):
            stats.record(-1e-9)

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            LatencyStats().mean

    def test_merge(self):
        left, right = LatencyStats(), LatencyStats()
        left.record(1.0)
        right.record(3.0)
        left.merge(right)
        assert left.count == 2
        assert left.mean == pytest.approx(2.0)

    def test_worst_fraction_mean(self):
        stats = LatencyStats()
        for value in range(1, 101):
            stats.record(float(value))
        # worst 5% of 1..100 = 96..100
        assert stats.worst_fraction_mean(0.05) == pytest.approx(98.0)

    def test_worst_fraction_keeps_at_least_one(self):
        stats = LatencyStats()
        stats.record(7.0)
        assert stats.worst_fraction_mean(0.05) == 7.0

    def test_quantile(self):
        stats = LatencyStats()
        for value in range(11):
            stats.record(float(value))
        assert stats.quantile(0.5) == pytest.approx(5.0)


class TestThroughputMeter:
    def test_goodput_over_window(self):
        meter = ThroughputMeter()
        meter.record(1.0, 1000)
        meter.record(2.0, 1000)
        # 2000 bytes over 1 second window
        assert meter.goodput_bps() == pytest.approx(16000.0)
        assert meter.message_count == 2

    def test_zero_window_returns_zero(self):
        meter = ThroughputMeter()
        meter.record(1.0, 1000)
        assert meter.goodput_bps() == 0.0

    def test_empty_meter(self):
        assert ThroughputMeter().goodput_bps() == 0.0
        assert ThroughputMeter().elapsed == 0.0


class TestRunStats:
    def test_record_delivery_aggregates(self):
        stats = RunStats()
        stats.record_delivery_batch(1.0, (delivered(3, 0.001, 1.0, 100),), 0.0)
        stats.record_delivery_batch(2.0, (delivered(4, 0.003, 2.0, 100),), 0.0)
        assert stats.latency.count == 2
        assert set(stats.per_sender_latency) == {3, 4}
        assert stats.throughput.payload_bytes == 200

    def test_record_delivery_skips_warmup_and_unstamped(self):
        stats = RunStats()
        unstamped = delivered(1, 0.0)
        unstamped.timestamp = None
        stats.record_delivery_batch(1.0, (delivered(1, 0.5), unstamped), measure_from=0.9)
        assert stats.latency.count == 0

    def test_worst_5pct_mean_averages_senders(self):
        stats = RunStats()
        stats.record_delivery_batch(1.0, [delivered(1, 0.001)] * 20, 0.0)
        stats.record_delivery_batch(1.0, [delivered(2, 0.003)] * 20, 0.0)
        assert stats.worst_5pct_mean() == pytest.approx(0.002)

    def test_worst_5pct_empty_raises(self):
        with pytest.raises(ValueError):
            RunStats().worst_5pct_mean()

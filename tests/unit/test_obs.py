"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.core.messages import DataMessage, DeliveryService
from repro.net.loss import UniformLoss
from repro.obs.export import load_json, render_table, save_json, to_json
from repro.obs.metrics import (
    COUNT_BOUNDS,
    LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    geometric_bounds,
    merge_registries,
)
from repro.obs.observer import MetricsObserver, NullObserver
from repro.sim.build import ClusterBuilder
from repro.workloads.generators import FixedRateWorkload


# ----------------------------------------------------------------------
# Counter / Gauge
# ----------------------------------------------------------------------


def test_counter_inc_and_merge():
    a, b = Counter(), Counter()
    a.inc()
    a.inc(4)
    b.inc(7)
    a.merge(b)
    assert a.snapshot() == 12
    assert b.snapshot() == 7


def test_counter_rejects_negative_increment():
    with pytest.raises(MetricsError):
        Counter().inc(-1)


def test_gauge_set_add_and_merge_keeps_max():
    a, b = Gauge(), Gauge()
    a.set(3.0)
    a.add(1.5)
    b.set(10.0)
    a.merge(b)
    assert a.snapshot() == 10.0
    b.merge(a)
    assert b.snapshot() == 10.0


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------


def test_geometric_bounds_cover_range():
    bounds = geometric_bounds(1e-6, 100.0, buckets_per_decade=5)
    assert bounds[0] == pytest.approx(1e-6)
    assert bounds[-1] >= 100.0
    assert all(b > a for a, b in zip(bounds, bounds[1:]))


def test_geometric_bounds_reject_bad_ranges():
    with pytest.raises(MetricsError):
        geometric_bounds(0.0, 1.0)
    with pytest.raises(MetricsError):
        geometric_bounds(2.0, 1.0)
    with pytest.raises(MetricsError):
        geometric_bounds(1.0, 2.0, buckets_per_decade=0)


def test_histogram_exact_stats_and_quantiles():
    h = Histogram(LATENCY_BOUNDS)
    values = [1e-4, 2e-4, 3e-4, 4e-4, 1e-3]
    for value in values:
        h.record(value)
    assert h.count == 5
    assert h.min == 1e-4
    assert h.max == 1e-3
    assert h.mean == pytest.approx(sum(values) / 5)
    # Quantiles are approximate but must stay within the recorded range
    # and be monotone in the fraction.
    q50, q99 = h.quantile(0.5), h.quantile(0.99)
    assert h.min <= q50 <= q99 <= h.max


def test_histogram_overflow_bucket():
    h = Histogram(bounds=(1.0, 10.0))
    h.record(1000.0)
    assert h.count == 1
    assert h.buckets[-1] == 1
    assert h.quantile(1.0) == 1000.0


def test_histogram_rejects_negative_values_and_bad_bounds():
    with pytest.raises(MetricsError):
        Histogram(LATENCY_BOUNDS).record(-1.0)
    with pytest.raises(MetricsError):
        Histogram(bounds=(1.0,))
    with pytest.raises(MetricsError):
        Histogram(bounds=(1.0, 1.0))


def test_histogram_empty_mean_and_quantile_raise():
    h = Histogram(LATENCY_BOUNDS)
    with pytest.raises(MetricsError):
        _ = h.mean
    with pytest.raises(MetricsError):
        h.quantile(0.5)


def test_histogram_merge_is_lossless():
    a, b = Histogram(LATENCY_BOUNDS), Histogram(LATENCY_BOUNDS)
    combined = Histogram(LATENCY_BOUNDS)
    for index, value in enumerate([1e-5, 5e-4, 2e-3, 0.1, 1.0, 7.0]):
        (a if index % 2 else b).record(value)
        combined.record(value)
    a.merge(b)
    assert a.count == combined.count
    assert a.total == pytest.approx(combined.total)
    assert a.min == combined.min
    assert a.max == combined.max
    assert a.buckets == combined.buckets
    assert a.snapshot() == combined.snapshot()


def test_histogram_merge_requires_identical_bounds():
    a = Histogram(LATENCY_BOUNDS)
    b = Histogram(COUNT_BOUNDS)
    with pytest.raises(MetricsError):
        a.merge(b)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_is_lazy_and_stable():
    registry = MetricsRegistry()
    registry.counter("a.events").inc()
    assert registry.counter("a.events") is registry.counter("a.events")
    registry.gauge("b.level").set(2)
    registry.histogram("c.latency").record(1e-3)
    assert registry.names() == ["a.events", "b.level", "c.latency"]


def test_registry_merge_and_merge_registries():
    shards = []
    for shard in range(3):
        registry = MetricsRegistry()
        registry.counter("events").inc(shard + 1)
        registry.histogram("lat").record(1e-3 * (shard + 1))
        shards.append(registry)
    merged = merge_registries(shards)
    assert merged.counter("events").value == 6
    assert merged.histogram("lat").count == 3


def test_snapshot_is_json_serializable_and_sorted():
    registry = MetricsRegistry()
    registry.counter("z").inc()
    registry.counter("a").inc()
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a", "z"]
    json.dumps(snap)  # must not raise


# ----------------------------------------------------------------------
# Observers
# ----------------------------------------------------------------------


def _message(seq=1, post_token=False, timestamp=None):
    return DataMessage(
        seq=seq,
        pid=0,
        round=1,
        service=DeliveryService.AGREED,
        payload=b"",
        timestamp=timestamp,
        post_token=post_token,
    )


def test_null_observer_accepts_every_hook():
    observer = NullObserver()
    observer.on_token_received(0, None)
    observer.on_token_sent(0, None)
    observer.on_multicast(0, _message())
    observer.on_deliver_batch(0, (_message(),))
    observer.on_retransmit_requested(0, 1)
    observer.on_flow_control(0, None, 0)
    observer.on_membership_event(0, "state_change")
    observer.on_fault("crash")


def test_metrics_observer_token_rotation():
    observer = MetricsObserver()
    observer.on_token_received(0, None, now=1.0)
    observer.on_token_received(0, None, now=1.5)
    observer.on_token_received(1, None, now=2.0)  # other pid: no sample yet
    snap = observer.snapshot()
    assert snap["counters"]["token.received"] == 3
    rotation = snap["histograms"]["token.rotation_time"]
    assert rotation["count"] == 1
    assert rotation["mean"] == pytest.approx(0.5)


def test_metrics_observer_multicast_split_and_retransmissions():
    observer = MetricsObserver()
    observer.on_multicast(0, _message(post_token=False))
    observer.on_multicast(0, _message(post_token=True))
    observer.on_multicast(0, _message(), retransmission=True)
    snap = observer.snapshot()
    assert snap["counters"]["multicast.sent"] == 2
    assert snap["counters"]["multicast.pre_token"] == 1
    assert snap["counters"]["multicast.post_token"] == 1
    assert snap["counters"]["retransmit.sent"] == 1


def test_metrics_observer_counts_recovery_membership_events():
    observer = MetricsObserver()
    observer.on_membership_event(0, "recovery_started", detail={"ring_id": 4})
    observer.on_membership_event(0, "recovery_retry", detail={"attempt": 1})
    observer.on_membership_event(0, "recovery_aborted", detail={"attempts": 2})
    observer.on_membership_event(0, "recovery_started", detail={"ring_id": 8})
    observer.on_membership_event(0, "recovery_completed", detail={"attempts": 1})
    snap = observer.snapshot()
    assert snap["counters"]["recovery.started"] == 2
    assert snap["counters"]["recovery.retries"] == 1
    assert snap["counters"]["recovery.aborted"] == 1
    assert snap["counters"]["recovery.completed"] == 1
    assert snap["histograms"]["recovery.attempts"]["count"] == 1
    assert snap["histograms"]["recovery.attempts"]["sum"] == 1


def test_metrics_observer_delivery_latency():
    observer = MetricsObserver()
    observer.on_deliver_batch(0, (_message(timestamp=1.0),), now=1.25)
    observer.on_deliver_batch(0, (_message(timestamp=None),), now=2.0)  # no latency sample
    snap = observer.snapshot()
    assert snap["counters"]["deliver.messages"] == 2
    latency = snap["histograms"]["deliver.latency"]
    assert latency["count"] == 1
    assert latency["mean"] == pytest.approx(0.25)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------


def test_json_round_trip(tmp_path):
    registry = MetricsRegistry()
    registry.counter("events").inc(3)
    registry.histogram("lat").record(2e-3)
    path = save_json(str(tmp_path / "metrics.json"), registry)
    loaded = load_json(path)
    assert loaded == registry.snapshot()


def test_render_table_mentions_every_metric():
    registry = MetricsRegistry()
    registry.counter("events").inc(3)
    registry.gauge("level").set(1.5)
    registry.histogram("lat").record(2e-3)
    table = render_table(registry, title="test metrics")
    assert "test metrics" in table
    assert "events" in table
    assert "level" in table
    assert "lat" in table


# ----------------------------------------------------------------------
# Determinism: identical simulated runs produce identical snapshots
# ----------------------------------------------------------------------


def _observed_lossy_run():
    observer = MetricsObserver()
    cluster = (
        ClusterBuilder()
        .hosts(4)
        .loss(UniformLoss(rate=0.05, seed=11))
        .observe(observer)
        .build()
    )
    workload = FixedRateWorkload(payload_size=200, aggregate_rate_bps=2e7)
    workload.attach(cluster, start=0.001, stop=0.02)
    cluster.start()
    cluster.run(0.03)
    return to_json(observer.registry)


def test_snapshot_determinism_under_simulated_time():
    assert _observed_lossy_run() == _observed_lossy_run()

"""Property: unboxed latency storage reports what a dict of lists did.

``RunStats`` keeps one ``array('d')`` of pooled samples and, index for
index, an integer array of sender pids; its per-sender view is derived
on read.  Checked against the storage it replaced — a pooled list plus a
``{pid: [latency, ...]}`` dict filled as deliveries arrive — written
out here: every figure must come out bit-identical (``==``, not
``approx``), senders in first-appearance order, over delivery runs with
repeated and interleaved senders, unstamped messages and messages
stamped before the measurement window.
"""

from hypothesis import given, settings, strategies as st

from repro.core.messages import DataMessage, DeliveryService
from repro.sim.build import ClusterBuilder
from repro.util.stats import RunStats, percentile
from repro.util.units import Mbps
from repro.workloads import FixedRateWorkload


class ReferenceStats:
    """The dict-of-lists storage, recorded and summarised the old way."""

    def __init__(self):
        self.samples = []
        self.per_sender = {}

    def record_delivery_batch(self, now, messages, measure_from):
        for message in messages:
            timestamp = message.timestamp
            if timestamp is None or timestamp < measure_from:
                continue
            latency = now - timestamp
            self.samples.append(latency)
            self.per_sender.setdefault(message.pid, []).append(latency)

    def worst_5pct_mean(self):
        worsts = []
        for samples in self.per_sender.values():
            ordered = sorted(samples, reverse=True)
            worst = ordered[: max(1, int(round(len(ordered) * 0.05)))]
            worsts.append(sum(worst) / len(worst))
        return sum(worsts) / len(worsts)


def message(pid, timestamp):
    return DataMessage(
        seq=1, pid=pid, round=1, service=DeliveryService.AGREED,
        payload=b"", timestamp=timestamp, payload_size=100,
    )


#: One delivery: its sender (few pids, so they repeat and interleave)
#: and its age at delivery, or ``None`` for an unstamped message.
DELIVERY = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.01)),
)
#: One delivered run: the delivery time and its messages.
RUN = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(DELIVERY, min_size=1, max_size=12),
)


def record(stats, runs, measure_from):
    for now, deliveries in runs:
        messages = tuple(
            message(pid, None if age is None else now - age)
            for pid, age in deliveries
        )
        stats.record_delivery_batch(now, messages, measure_from)


def assert_same(stats, reference):
    assert len(stats.senders) == len(stats.latency.samples)
    assert list(stats.latency.samples) == reference.samples
    views = stats.per_sender_latency
    assert list(views) == list(reference.per_sender)
    assert {pid: list(view.samples) for pid, view in views.items()} == reference.per_sender
    if not reference.samples:
        return
    latency = stats.latency
    assert latency.mean == sum(reference.samples) / len(reference.samples)
    assert latency.quantile(0.5) == percentile(reference.samples, 0.5)
    assert latency.quantile(0.95) == percentile(reference.samples, 0.95)
    assert stats.worst_5pct_mean() == reference.worst_5pct_mean()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(RUN, max_size=20),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_run_stats_match_the_dict_of_lists(runs, measure_from):
    stats, reference = RunStats(), ReferenceStats()
    record(stats, runs, measure_from)
    record(reference, runs, measure_from)
    assert_same(stats, reference)
    assert stats.throughput.message_count == len(reference.samples)


def test_cluster_aggregate_matches_the_dict_of_lists():
    # Each host's deliveries also feed a reference; the pooled samples
    # and the per-sender worst-5% figure must come out the same.
    cluster = ClusterBuilder().hosts(4).build()
    references = {}
    for pid, driver in cluster.drivers.items():
        reference = references[pid] = ReferenceStats()
        stats = driver.stats

        def both(now, messages, measure_from, stats=stats, reference=reference):
            reference.record_delivery_batch(now, messages, measure_from)
            RunStats.record_delivery_batch(stats, now, messages, measure_from)

        stats.record_delivery_batch = both
    workload = FixedRateWorkload(payload_size=1350, aggregate_rate_bps=Mbps(300))
    workload.attach(cluster, start=0.005, stop=0.03)
    cluster.set_measure_from(0.01)
    cluster.start()
    cluster.run(0.04)

    for pid, driver in cluster.drivers.items():
        assert len(references[pid].per_sender) == 4
        assert_same(driver.stats, references[pid])
    aggregate = cluster.aggregate()
    pooled = [s for pid in cluster.drivers for s in references[pid].samples]
    assert list(aggregate.latency.samples) == pooled
    worsts = [reference.worst_5pct_mean() for reference in references.values()]
    assert aggregate.per_sender_worst_5pct_mean == sum(worsts) / len(worsts)

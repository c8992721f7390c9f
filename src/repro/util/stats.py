"""Latency and throughput statistics used by benchmarks and workloads."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Return the ``fraction`` percentile (0..1) using linear interpolation.

    Raises :class:`ValueError` on an empty sample set so silent zeros never
    leak into benchmark reports.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    value = ordered[low] * (1.0 - weight) + ordered[high] * weight
    # Multiplying denormal floats can underflow below the bracketing
    # samples; clamp so the result always lies between them.
    return min(max(value, ordered[low]), ordered[high])


@dataclass
class LatencyStats:
    """Accumulates per-message delivery latencies (in seconds).

    The paper reports the mean latency over all messages, and for the loss
    experiments (Figs. 9-12) also the mean over the worst (highest-latency)
    5% of messages from each sender.  ``worst_fraction_mean`` implements the
    latter.  Samples are stored unboxed, 8 bytes each, in an ``array('d')``.
    """

    samples: "array[float]" = field(default_factory=lambda: array("d"))

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self.samples.append(latency)

    def merge(self, other: "LatencyStats") -> None:
        self.samples.extend(other.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError("no latency samples recorded")
        return sum(self.samples) / len(self.samples)

    @property
    def maximum(self) -> float:
        if not self.samples:
            raise ValueError("no latency samples recorded")
        return max(self.samples)

    @property
    def minimum(self) -> float:
        if not self.samples:
            raise ValueError("no latency samples recorded")
        return min(self.samples)

    def quantile(self, fraction: float) -> float:
        return percentile(self.samples, fraction)

    def worst_fraction_mean(self, fraction: float = 0.05) -> float:
        """Mean over the worst ``fraction`` of samples (paper's dashed lines)."""
        if not self.samples:
            raise ValueError("no latency samples recorded")
        ordered = sorted(self.samples, reverse=True)
        keep = max(1, int(round(len(ordered) * fraction)))
        worst = ordered[:keep]
        return sum(worst) / len(worst)


@dataclass
class ThroughputMeter:
    """Counts delivered payload bytes over a measurement window.

    Following the paper, throughput is measured in *clean application data
    only*: protocol headers, retransmissions, and tokens do not count.
    """

    payload_bytes: int = 0
    message_count: int = 0
    start_time: Optional[float] = None
    end_time: Optional[float] = None

    def record(self, now: float, payload_size: int) -> None:
        if self.start_time is None:
            self.start_time = now
        self.end_time = now
        self.payload_bytes += payload_size
        self.message_count += 1

    @property
    def elapsed(self) -> float:
        if self.start_time is None or self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    def goodput_bps(self) -> float:
        """Delivered payload bits per second over the observed window."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.payload_bytes * 8.0 / self.elapsed


@dataclass
class RunStats:
    """Aggregated results of one simulated benchmark run.

    Each measured delivery is one pooled sample in ``latency.samples``
    and, at the same index, its sender's pid in ``senders``; per-sender
    statistics are derived from the two on read.
    """

    latency: LatencyStats = field(default_factory=LatencyStats)
    #: Unsigned: CPython appends to an ``'I'`` array without its format
    #: parser, about three times faster than to a signed ``'q'`` one.
    senders: "array[int]" = field(default_factory=lambda: array("I"))
    throughput: ThroughputMeter = field(default_factory=ThroughputMeter)
    retransmissions: int = 0
    token_rounds: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0

    def record_delivery_batch(
        self, now: float, messages, measure_from: float
    ) -> None:
        """Record one in-order delivery run in a single call.

        Per message, two machine values: its latency (an 8-byte double
        in ``latency.samples``) and its sender's pid (4 bytes in
        ``senders``); the per-sender view is derived on read
        (:attr:`per_sender_latency`).
        One throughput-window update covers the whole run — the delivery
        path calls this once per run (a scalar delivery is a run of one).
        Messages stamped before ``measure_from`` (or unstamped) are
        outside the measurement window and skipped.
        """
        samples = self.latency.samples
        senders = self.senders
        throughput = self.throughput
        payload_bytes = 0
        count = 0
        for message in messages:
            timestamp = message.timestamp
            if timestamp is None or timestamp < measure_from:
                continue
            latency = now - timestamp
            if latency < 0:
                raise ValueError(f"negative latency {latency}")
            samples.append(latency)
            senders.append(message.pid)
            payload_bytes += message.payload_size
            count += 1
        if count:
            if throughput.start_time is None:
                throughput.start_time = now
            throughput.end_time = now
            throughput.payload_bytes += payload_bytes
            throughput.message_count += count

    @property
    def per_sender_latency(self) -> Dict[int, LatencyStats]:
        """Each sender's samples, in delivery order, keyed in the order
        senders first appear — a fresh copy built from the two arrays."""
        views: Dict[int, LatencyStats] = {}
        for pid, latency in zip(self.senders, self.latency.samples):
            stats = views.get(pid)
            if stats is None:
                stats = views[pid] = LatencyStats()
            stats.samples.append(latency)
        return views

    def worst_5pct_mean(self) -> float:
        """Mean over the worst 5% of messages *from each sender* (paper §IV-A4)."""
        worsts = [
            stats.worst_fraction_mean(0.05)
            for stats in self.per_sender_latency.values()
        ]
        if not worsts:
            raise ValueError("no per-sender latency samples recorded")
        return sum(worsts) / len(worsts)

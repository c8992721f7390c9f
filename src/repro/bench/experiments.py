"""Experiment execution: one simulated run per operating point.

Every run matches the paper's benchmark methodology (§IV-A): 8 servers,
one sending client per server injecting at a fixed aggregate rate, every
receiving client receiving all messages, average delivery latency
reported per throughput level; loss experiments additionally report the
mean over the worst 5% of messages from each sender.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.bench.windows import window_for
from repro.core.config import ProtocolConfig
from repro.core.messages import DeliveryService
from repro.net.loss import LossModel, PositionalLoss, UniformLoss
from repro.net.params import NetworkParams
from repro.sim.build import ClusterBuilder
from repro.sim.cluster import RingCluster
from repro.sim.profiles import ImplementationProfile
from repro.util.units import Mbps, seconds_to_usec
from repro.workloads.generators import ClosedLoopWorkload, FixedRateWorkload

if TYPE_CHECKING:
    from repro.obs.observer import ProtocolObserver

WARMUP = 0.04
MEASURE = 0.08
NUM_HOSTS = 8


@dataclass(frozen=True)
class ExperimentPoint:
    """One operating point of one curve."""

    rate_mbps: float
    goodput_mbps: float
    latency_us: float
    worst5_us: float
    retransmissions: int
    token_rounds: int
    #: Where the point sits on its figure's x-axis: the offered rate
    #: unless a sweep varies something else (loss % in Figs. 9-12, ring
    #: distance in Fig. 13).
    x: Optional[float] = None

    def __post_init__(self) -> None:
        if self.x is None:
            object.__setattr__(self, "x", self.rate_mbps)

    def row(self) -> List[str]:
        return [
            f"{self.x:8.0f}",
            f"{self.goodput_mbps:9.1f}",
            f"{self.latency_us:9.1f}",
            f"{self.worst5_us:9.1f}",
            f"{self.retransmissions:7d}",
        ]


def _build_ring(
    accelerated: bool,
    profile: ImplementationProfile,
    params: NetworkParams,
    payload_size: int = 1350,
    config: Optional[ProtocolConfig] = None,
    loss_model: Optional[LossModel] = None,
    observer: Optional["ProtocolObserver"] = None,
    num_hosts: int = NUM_HOSTS,
) -> RingCluster:
    """The benchmark ring: ``config`` defaults to the paper's window
    selection for the curve (:func:`~repro.bench.windows.window_for`)."""
    config = config or window_for(profile, params, accelerated, payload_size)
    return (
        ClusterBuilder()
        .hosts(num_hosts)
        .accelerated(accelerated)
        .profile(profile)
        .network(params)
        .config(config)
        .loss(loss_model)
        .observe(observer)
        .build_ring()
    )


def run_window(cluster, workload, warmup: float, measure: float) -> float:
    """Drive ``workload`` through the benchmark window on ``cluster``.

    Injection starts at 2 ms, statistics are kept from ``warmup`` later,
    and the run continues 10 ms past the injection stop so in-flight
    messages deliver.  Returns the host seconds spent in the event loop
    (construction, attachment and start are outside the clock).
    """
    start = 0.002
    stop = start + warmup + measure
    workload.attach(cluster, start=start, stop=stop)
    cluster.set_measure_from(start + warmup)
    cluster.start()
    t0 = time.perf_counter()
    cluster.run(stop + 0.01)
    return time.perf_counter() - t0


def window_summary(cluster, workload, warmup: float, measure: float) -> Dict[str, Any]:
    """Drive the benchmark window (:func:`run_window`) and return what it
    reproduces on any machine: simulated events processed, goodput in
    Mbit/s and mean latency in µs, the last two rounded to 3 places."""
    run_window(cluster, workload, warmup, measure)
    stats = cluster.aggregate()
    return {
        "events_processed": cluster.sim.events_processed,
        "goodput_mbps": round(stats.goodput_bps / 1e6, 3),
        "latency_us": round(stats.mean_latency * 1e6, 3),
    }


def _run_cluster(
    cluster: RingCluster,
    workload,
    warmup: float,
    measure: float,
) -> ExperimentPoint:
    run_window(cluster, workload, warmup, measure)
    stats = cluster.aggregate()
    try:
        worst5 = seconds_to_usec(stats.per_sender_worst_5pct_mean)
    except ValueError:
        worst5 = 0.0
    rate = getattr(workload, "aggregate_rate_bps", 0.0) / 1e6
    return ExperimentPoint(
        rate_mbps=rate,
        goodput_mbps=stats.goodput_bps / 1e6,
        latency_us=seconds_to_usec(stats.mean_latency),
        worst5_us=worst5,
        retransmissions=stats.retransmissions,
        token_rounds=stats.token_rounds,
    )


def run_point(
    profile: ImplementationProfile,
    accelerated: bool,
    params: NetworkParams,
    rate_mbps: float,
    payload_size: int = 1350,
    service: DeliveryService = DeliveryService.AGREED,
    config: Optional[ProtocolConfig] = None,
    loss_model: Optional[LossModel] = None,
    warmup: float = WARMUP,
    measure: float = MEASURE,
    observer: Optional["ProtocolObserver"] = None,
) -> ExperimentPoint:
    """One fixed-rate run; returns the measured operating point.

    Pass an ``observer`` (e.g. :class:`~repro.obs.observer.MetricsObserver`)
    to collect protocol metrics alongside the benchmark numbers.
    """
    cluster = _build_ring(
        accelerated=accelerated,
        profile=profile,
        params=params,
        payload_size=payload_size,
        config=config,
        loss_model=loss_model,
        observer=observer,
    )
    workload = FixedRateWorkload(
        payload_size=payload_size,
        aggregate_rate_bps=Mbps(rate_mbps),
        service=service,
    )
    return _run_cluster(cluster, workload, warmup, measure)


def sweep_rates(
    profile: ImplementationProfile,
    accelerated: bool,
    params: NetworkParams,
    rates_mbps: Sequence[float],
    payload_size: int = 1350,
    service: DeliveryService = DeliveryService.AGREED,
) -> List[ExperimentPoint]:
    """The paper's core methodology: latency at increasing throughput."""
    return [
        run_point(
            profile=profile,
            accelerated=accelerated,
            params=params,
            rate_mbps=rate,
            payload_size=payload_size,
            service=service,
        )
        for rate in rates_mbps
    ]


def run_max_throughput(
    profile: ImplementationProfile,
    accelerated: bool,
    params: NetworkParams,
    payload_size: int = 1350,
    service: DeliveryService = DeliveryService.AGREED,
    config: Optional[ProtocolConfig] = None,
    observer: Optional["ProtocolObserver"] = None,
) -> ExperimentPoint:
    """Maximum sustainable goodput (closed-loop senders, §IV-A library
    methodology: send as much as flow control allows every round)."""
    cluster = _build_ring(
        accelerated=accelerated,
        profile=profile,
        params=params,
        payload_size=payload_size,
        config=config,
        observer=observer,
    )
    workload = ClosedLoopWorkload(payload_size=payload_size, service=service)
    return _run_cluster(cluster, workload, WARMUP, MEASURE)


def run_loss_point(
    accelerated: bool,
    params: NetworkParams,
    rate_mbps: float,
    loss_rate: float,
    profile: ImplementationProfile,
    service: DeliveryService = DeliveryService.AGREED,
    payload_size: int = 1350,
    seed: int = 7,
) -> ExperimentPoint:
    """One loss-experiment point (paper §IV-A4: each daemon drops a
    percentage of received data messages, independently)."""
    loss = UniformLoss(rate=loss_rate, seed=seed) if loss_rate > 0 else None
    # Loss needs longer measurement: retransmission latencies have heavy
    # tails and the worst-5% statistic needs samples.
    return run_point(
        profile=profile,
        accelerated=accelerated,
        params=params,
        rate_mbps=rate_mbps,
        payload_size=payload_size,
        service=service,
        loss_model=loss,
        warmup=WARMUP,
        measure=MEASURE * 2,
    )


def loss_sweep(
    accelerated: bool,
    params: NetworkParams,
    rate_mbps: float,
    loss_rates: Sequence[float],
    profile: ImplementationProfile,
    service: DeliveryService = DeliveryService.AGREED,
) -> List[ExperimentPoint]:
    """Figs. 9-12: one point per loss rate, each at ``x`` = loss %."""
    return [
        replace(
            run_loss_point(
                accelerated=accelerated,
                params=params,
                rate_mbps=rate_mbps,
                loss_rate=loss,
                profile=profile,
                service=service,
            ),
            x=100 * loss,
        )
        for loss in loss_rates
    ]


def positional_loss_sweep(
    accelerated: bool,
    params: NetworkParams,
    rate_mbps: float,
    distances: Sequence[int],
    profile: ImplementationProfile,
    service: DeliveryService = DeliveryService.AGREED,
    loss_rate: float = 0.2,
) -> List[ExperimentPoint]:
    """Fig. 13: each daemon loses ``loss_rate`` of the messages sent by
    the daemon ``distance`` ring positions before it; each point is at
    ``x`` = ``distance``."""
    points = []
    ring_order = list(range(NUM_HOSTS))
    for distance in distances:
        loss = PositionalLoss(ring_order=ring_order, distance=distance, rate=loss_rate)
        cluster = _build_ring(
            accelerated=accelerated,
            profile=profile,
            params=params,
            loss_model=loss,
        )
        workload = FixedRateWorkload(
            payload_size=1350,
            aggregate_rate_bps=Mbps(rate_mbps),
            service=service,
        )
        point = _run_cluster(cluster, workload, WARMUP, MEASURE * 2)
        points.append(replace(point, x=distance))
    return points

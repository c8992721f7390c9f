"""The results that are tables rather than curves.

* **Fig. 1** — the example execution schedule: three participants send
  twenty messages with Personal window 5 and Accelerated window 3.  The
  original protocol emits ``1 2 3 4 5 T5`` where the accelerated one
  emits ``1 2 T5 3 4 5``; the token carries the same seqs in both.
* **Mechanism** (§III-A) — the causal chain behind every figure: at
  identical offered load the accelerated protocol completes token
  rotations faster and leaves the wire idle less.
* **Scaling** — an extension past the paper's 8-server testbed.  Ring
  size: every extra hop of the original protocol adds a full
  "finish multicasting, then pass" serialization the accelerated token
  overlaps, so its advantage should grow with the ring.  Ring count:
  sharding groups over N independent rings (docs/PROTOCOL.md §11) should
  order close to N× the work of one ring in the same simulated window,
  read from simulated events and goodput (wall clock cannot speed up on
  one interpreter); ``tests/golden/scenario_digests.json`` pins each
  count's window (``bench/scaling/rings-N``).

The four producers return ``(title, Table)`` for
:data:`repro.bench.figures.FIGURES`; :func:`schedule_trace` is Fig. 1's run.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.analysis.ledger import TransmitLedger
from repro.bench.experiments import (
    MEASURE,
    WARMUP,
    _build_ring,
    _run_cluster,
    window_summary,
)
from repro.bench.report import Table
from repro.bench.windows import window_for
from repro.core.config import ProtocolConfig
from repro.net.params import GIGABIT
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import DAEMON, LIBRARY, SPREAD
from repro.util.units import Mbps, seconds_to_usec
from repro.workloads.generators import ClosedLoopWorkload, FixedRateWorkload

#: Entries of each participant's schedule shown in Fig. 1.
SCHEDULE_LENGTH = 8
#: Offered loads of the mechanism table (Mbps).
MECHANISM_RATES = (300, 500, 700)
#: Ring sizes of the scaling table, at a fixed aggregate rate (Mbps).
RING_SIZES = (2, 4, 8, 12, 16)
SCALING_RATE_MBPS = 400
#: Ring counts of the ring-count table.
RING_COUNTS = (1, 2, 4)


def schedule_trace(accelerated: bool) -> TransmitLedger:
    """Fig. 1's run: participant 0 sends in rounds 1 and 2 (ten
    messages), participants 1 and 2 five each; returns its transmit ledger."""
    config = ProtocolConfig(
        personal_window=5,
        accelerated_window=3 if accelerated else 0,
        global_window=100,
    )
    cluster = (
        ClusterBuilder()
        .hosts(3)
        .accelerated(accelerated)
        .profile(LIBRARY)
        .network(GIGABIT)
        .config(config)
        .build()
    )
    ledger = TransmitLedger(cluster.topology)
    for pid, count in {0: 10, 1: 5, 2: 5}.items():
        for _ in range(count):
            cluster.driver(pid).client_submit(payload_size=1350)
    cluster.start()
    cluster.run(0.01)
    return ledger


def fig01_schedule() -> Tuple[str, Table]:
    """Fig. 1: each participant's first transmissions in both protocols."""
    original, accelerated = schedule_trace(False), schedule_trace(True)
    rows = [
        [
            f"participant {pid}",
            " ".join(original.sequence_of(pid)[:SCHEDULE_LENGTH]),
            " ".join(accelerated.sequence_of(pid)[:SCHEDULE_LENGTH]),
        ]
        for pid in range(3)
    ]
    return (
        "Fig 1: transmit schedules (T<n> = token carrying seq n)",
        Table(["participant", "original", "accelerated"], rows),
    )


def _rounds_and_dead_air(accelerated: bool, rate: float) -> Tuple[float, float]:
    """Mean token rotation (µs) and dead-air share (%) of the Spread ring."""
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
    workload.attach(cluster, start=0.001, stop=0.06)
    cluster.start()
    cluster.run(0.06)
    return (
        seconds_to_usec(ledger.mean_rotation(0)),
        100.0 * ledger.wire_stats(0.02, 0.06).dead_air_fraction,
    )


def mechanism_rounds_and_dead_air() -> Tuple[str, Table]:
    """§III-A: token rotation time and dead air, original vs accelerated."""
    rows = []
    for rate in MECHANISM_RATES:
        orig_round, orig_idle = _rounds_and_dead_air(False, rate)
        accel_round, accel_idle = _rounds_and_dead_air(True, rate)
        rows.append(
            [
                f"{rate:.0f}",
                f"{orig_round:.1f}",
                f"{accel_round:.1f}",
                f"{orig_idle:.1f}",
                f"{accel_idle:.1f}",
            ]
        )
    return (
        "Mechanism: token rotation time and dead air (Spread, 1 GbE)",
        Table(
            ["rate_mbps", "round_orig_us", "round_accel_us", "idle_orig_%", "idle_accel_%"],
            rows,
        ),
    )


def _ring_size_latency(num_hosts: int, accelerated: bool) -> float:
    config = ProtocolConfig(
        personal_window=30,
        accelerated_window=30 if accelerated else 0,
        global_window=30 * num_hosts,
    )
    cluster = _build_ring(accelerated, DAEMON, GIGABIT, config=config, num_hosts=num_hosts)
    workload = FixedRateWorkload(payload_size=1350,
                                 aggregate_rate_bps=Mbps(SCALING_RATE_MBPS))
    return _run_cluster(cluster, workload, WARMUP, MEASURE).latency_us


def scaling_ring_size() -> Tuple[str, Table]:
    """Latency vs ring size at a fixed aggregate rate, both protocols."""
    rows = []
    for size in RING_SIZES:
        orig = _ring_size_latency(size, accelerated=False)
        accel = _ring_size_latency(size, accelerated=True)
        rows.append([f"{size}", f"{orig:.1f}", f"{accel:.1f}", f"{orig / accel:.2f}x"])
    return (
        f"Scaling: ring size at {SCALING_RATE_MBPS} Mbps aggregate (daemon, 1 GbE)",
        Table(["ring_size", "orig_lat_us", "accel_lat_us", "advantage"], rows),
    )


def ring_count_window(num_rings: int) -> Dict[str, Any]:
    """``num_rings`` independent 4-host rings sharing one simulator, every
    sender saturated, through a 30 ms window: N rings should process
    close to N× the events and goodput of one (wall clock cannot scale
    on one interpreter)."""
    cluster = (
        ClusterBuilder()
        .rings(num_rings)
        .hosts(4)
        .protocol()
        .profile(LIBRARY)
        .network(GIGABIT)
        .config(window_for(LIBRARY, GIGABIT, True, 1350))
        .build_multiring()
    )
    return window_summary(cluster, ClosedLoopWorkload(payload_size=1350), 0.01, 0.02)


def scaling_ring_count() -> Tuple[str, Table]:
    """Ordering work of 1, 2 and 4 rings (:func:`ring_count_window`)."""
    results = {rings: ring_count_window(rings) for rings in RING_COUNTS}
    base = results[1]
    rows = []
    for rings, result in results.items():
        rows.append(
            [
                f"{rings}",
                f"{result['events_processed']}",
                f"{result['goodput_mbps']:.1f}",
                f"{result['events_processed'] / base['events_processed']:.2f}x",
                f"{result['goodput_mbps'] / base['goodput_mbps']:.2f}x",
            ]
        )
    return (
        "Scaling: ring count, closed-loop senders (library, 1 GbE)",
        Table(["rings", "events", "goodput_mbps", "event_scale", "goodput_scale"], rows),
    )

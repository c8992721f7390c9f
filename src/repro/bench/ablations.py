"""Ablation experiments for the design choices the paper discusses.

These go beyond the paper's figures: each isolates one mechanism the
paper credits for the Accelerated Ring protocol's behaviour and measures
its contribution.

* **Accelerated window sweep** — §IV-A: "Accelerated windows of half to
  all of the Personal window yield good results"; sweeping the window
  from 0 (the original protocol) to the full personal window shows how
  much of the benefit each increment buys.
* **Priority method** — §III-D/E: the aggressive token-priority method
  vs. the production (post-token) method.
* **Switch buffering** — §I/§III-A: "The parallelism that gives us this
  performance improvement is enabled by the buffering of modern
  switches"; shrinking the per-port buffer should erode the accelerated
  protocol's advantage (overlapped bursts start dropping).
* **Jumbo frames** — §IV-B: carrying 8850-byte payloads in 9000-byte
  frames instead of fragmenting across 1500-byte frames "may improve
  performance further".
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.bench.experiments import (
    NUM_HOSTS,
    ExperimentPoint,
    run_max_throughput,
    run_point,
)
from repro.core.config import ProtocolConfig, TokenPriorityMethod
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.sim.profiles import DAEMON, SPREAD

Series = Dict[str, List[ExperimentPoint]]


def accelerated_window_sweep(
    personal_window: int = 30,
    rate_mbps: float = 600,
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> Tuple[str, Series]:
    """Latency at a fixed rate as the Accelerated window grows from 0
    (the original protocol) to the full Personal window."""
    series: Series = {}
    for fraction in fractions:
        accel = int(round(personal_window * fraction))
        config = ProtocolConfig(
            personal_window=personal_window,
            accelerated_window=accel,
            global_window=personal_window * NUM_HOSTS,
            priority_method=TokenPriorityMethod.AGGRESSIVE
            if accel
            else TokenPriorityMethod.NEVER,
        )
        point = run_point(
            profile=SPREAD,
            accelerated=accel > 0,
            params=GIGABIT,
            rate_mbps=rate_mbps,
            config=config,
        )
        series[f"accel_window={accel}/{personal_window}"] = [point]
    return (
        f"Ablation: Accelerated window sweep (Spread, 1 GbE, {rate_mbps:.0f} Mbps, "
        f"Personal window {personal_window})",
        series,
    )


def priority_method_comparison(
    rates_mbps: Sequence[float] = (500, 1000, 1500, 2000),
) -> Tuple[str, Series]:
    """§III-D's two token-priority raising methods, on the 10 GbE fabric
    where token processing competes hardest with data processing."""
    series: Series = {}
    for method in (TokenPriorityMethod.AGGRESSIVE, TokenPriorityMethod.POST_TOKEN):
        config = ProtocolConfig(
            personal_window=30,
            accelerated_window=30,
            global_window=240,
            priority_method=method,
        )
        series[method.value] = [
            run_point(
                profile=DAEMON,
                accelerated=True,
                params=TEN_GIGABIT,
                rate_mbps=rate,
                config=config,
            )
            for rate in rates_mbps
        ]
    return ("Ablation: token priority method (daemon, 10 GbE)", series)


def switch_buffer_sweep(
    buffer_sizes: Sequence[int] = (4 * 1024, 8 * 1024, 32 * 1024, 64 * 1024, 256 * 1024),
) -> Tuple[str, Series]:
    """The accelerated protocol's dependence on switch buffering.

    Maximum throughput (closed-loop senders) as the per-port buffer
    shrinks: with deep buffers the overlapped pre/post-token bursts of
    consecutive senders interleave harmlessly; with shallow buffers they
    tail-drop, forcing retransmissions that erase the accelerated
    protocol's saturation advantage — the paper's "parallelism ...
    enabled by the buffering of modern switches" (§III-A), inverted.
    """
    series: Series = {}
    for buffer_bytes in buffer_sizes:
        params = replace(GIGABIT, switch_buffer_bytes=buffer_bytes)
        for accelerated in (False, True):
            name = f"{'accel' if accelerated else 'orig'}-{buffer_bytes // 1024}KiB"
            config = ProtocolConfig(
                personal_window=30,
                accelerated_window=30 if accelerated else 0,
                global_window=240,
            )
            series[name] = [
                run_max_throughput(
                    profile=SPREAD,
                    accelerated=accelerated,
                    params=params,
                    config=config,
                )
            ]
    return ("Ablation: switch buffer depth vs. max throughput (Spread, 1 GbE)", series)


def jumbo_frame_comparison() -> Tuple[str, Series]:
    """8850-byte payloads: kernel fragmentation over a 1500-byte MTU vs.
    9000-byte jumbo frames (paper §IV-B: jumbo frames "may improve
    performance further")."""
    series: Series = {}
    for mtu, label in ((1500, "mtu1500-fragmented"), (9000, "mtu9000-jumbo")):
        params = TEN_GIGABIT.with_mtu(mtu)
        series[label] = [
            run_max_throughput(
                profile=DAEMON,
                accelerated=True,
                params=params,
                payload_size=8850,
            )
        ]
    return ("Ablation: jumbo frames for 8850-byte payloads (daemon, 10 GbE)", series)

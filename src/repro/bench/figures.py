"""Per-figure experiment definitions.

One function per figure in the paper's evaluation (§IV).  Each returns
``(title, series)`` where ``series`` maps curve names to lists of
:class:`~repro.bench.experiments.ExperimentPoint`.  :data:`FIGURES` is
the one table of them: ``repro figure N`` and the parametrized
``benchmarks/bench_figures.py`` both read it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench.experiments import (
    ExperimentPoint,
    loss_sweep,
    positional_loss_sweep,
    run_max_throughput,
    sweep_rates,
)
from repro.core.messages import DeliveryService
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.sim.profiles import DAEMON, LIBRARY, SPREAD

Series = Dict[str, List[ExperimentPoint]]

_PROFILES = (LIBRARY, DAEMON, SPREAD)

#: 1 GbE rate axis (Mbps), Figs. 2-3.
RATES_1G: Sequence[float] = (100, 300, 500, 700, 800, 900)

#: 10 GbE rate axes per implementation (Mbps), Figs. 4-7 — each list runs
#: up to just past that implementation's knee.
RATES_10G = {
    "library": (100, 500, 1000, 2000, 3000, 3700, 4200),
    "daemon": (100, 500, 1000, 1500, 2000, 2500, 3000),
    "spread": (100, 500, 1000, 1500, 1800, 2100),
}

#: 10 GbE rate axes for 8850-byte payloads (Figs. 5/7).
RATES_10G_LARGE = {
    "library": (500, 2000, 4000, 6000, 7000),
    "daemon": (500, 2000, 3500, 5000, 5800),
    "spread": (500, 1500, 3000, 4500, 5200),
}

#: Fig. 8 fine-grained low-throughput axis.
RATES_FIG8: Sequence[float] = (100, 200, 300, 400, 500, 600, 800, 1000)

#: Per-daemon loss rates for Figs. 9-12.
LOSS_RATES: Sequence[float] = (0.0, 0.01, 0.05, 0.10, 0.15, 0.20, 0.25)

#: Ring distances for Fig. 13.
DISTANCES: Sequence[int] = (1, 2, 3, 4, 5, 6, 7)


def _latency_figure(params, service, payload=1350, rates=None) -> Series:
    series: Series = {}
    for profile in _PROFILES:
        profile_rates = rates if rates is not None else (
            RATES_1G if params is GIGABIT else RATES_10G[profile.name]
        )
        for accelerated in (False, True):
            name = f"{profile.name}-{'accel' if accelerated else 'orig'}"
            series[name] = sweep_rates(
                profile=profile,
                accelerated=accelerated,
                params=params,
                rates_mbps=profile_rates,
                payload_size=payload,
                service=service,
            )
    return series


def fig02_agreed_1g() -> Tuple[str, Series]:
    """Fig. 2: Agreed delivery latency vs throughput, 1 Gb network."""
    return (
        "Fig 2: Agreed delivery latency vs. throughput, 1 Gb network (1350 B)",
        _latency_figure(GIGABIT, DeliveryService.AGREED),
    )


def fig03_safe_1g() -> Tuple[str, Series]:
    """Fig. 3: Safe delivery latency vs throughput, 1 Gb network."""
    return (
        "Fig 3: Safe delivery latency vs. throughput, 1 Gb network (1350 B)",
        _latency_figure(GIGABIT, DeliveryService.SAFE),
    )


def fig04_agreed_10g() -> Tuple[str, Series]:
    """Fig. 4: Agreed delivery latency vs throughput, 10 Gb network."""
    return (
        "Fig 4: Agreed delivery latency vs. throughput, 10 Gb network (1350 B)",
        _latency_figure(TEN_GIGABIT, DeliveryService.AGREED),
    )


def fig06_safe_10g() -> Tuple[str, Series]:
    """Fig. 6: Safe delivery latency vs throughput, 10 Gb network."""
    return (
        "Fig 6: Safe delivery latency vs. throughput, 10 Gb network (1350 B)",
        _latency_figure(TEN_GIGABIT, DeliveryService.SAFE),
    )


def _payload_figure(service) -> Series:
    """Figs. 5/7: accelerated protocol, 1350 B vs 8850 B payloads, 10 GbE."""
    series: Series = {}
    for profile in _PROFILES:
        series[f"{profile.name}-1350B"] = sweep_rates(
            profile=profile,
            accelerated=True,
            params=TEN_GIGABIT,
            rates_mbps=RATES_10G[profile.name],
            payload_size=1350,
            service=service,
        )
        series[f"{profile.name}-8850B"] = sweep_rates(
            profile=profile,
            accelerated=True,
            params=TEN_GIGABIT,
            rates_mbps=RATES_10G_LARGE[profile.name],
            payload_size=8850,
            service=service,
        )
    return series


def fig05_agreed_payload_10g() -> Tuple[str, Series]:
    """Fig. 5: Agreed latency, 1350 B vs 8850 B, 10 Gb network."""
    return (
        "Fig 5: Agreed delivery latency vs. throughput, 1350 B vs 8850 B, 10 Gb",
        _payload_figure(DeliveryService.AGREED),
    )


def fig07_safe_payload_10g() -> Tuple[str, Series]:
    """Fig. 7: Safe latency, 1350 B vs 8850 B, 10 Gb network."""
    return (
        "Fig 7: Safe delivery latency vs. throughput, 1350 B vs 8850 B, 10 Gb",
        _payload_figure(DeliveryService.SAFE),
    )


def fig08_safe_low_10g() -> Tuple[str, Series]:
    """Fig. 8: Safe latency at low throughputs, 10 GbE — the crossover
    where the original protocol beats the accelerated one."""
    series: Series = {}
    for accelerated in (False, True):
        name = f"spread-{'accel' if accelerated else 'orig'}"
        series[name] = sweep_rates(
            profile=SPREAD,
            accelerated=accelerated,
            params=TEN_GIGABIT,
            rates_mbps=RATES_FIG8,
            payload_size=1350,
            service=DeliveryService.SAFE,
        )
    return ("Fig 8: Safe delivery latency for low throughputs, 10 Gb network", series)


def _loss_figure(params, rate_mbps: float) -> Series:
    series: Series = {}
    for service in (DeliveryService.AGREED, DeliveryService.SAFE):
        for accelerated in (False, True):
            name = f"{service.name.lower()}-{'accel' if accelerated else 'orig'}"
            series[name] = loss_sweep(
                accelerated=accelerated,
                params=params,
                rate_mbps=rate_mbps,
                loss_rates=LOSS_RATES,
                profile=DAEMON,
                service=service,
            )
    return series


def fig09_loss_480_10g() -> Tuple[str, Series]:
    """Fig. 9: Latency vs loss, 480 Mbps goodput, 10 Gb network."""
    return (
        "Fig 9: Latency vs. loss, 480 Mbps goodput, 10 Gb network (daemon)",
        _loss_figure(TEN_GIGABIT, 480),
    )


def fig10_loss_1200_10g() -> Tuple[str, Series]:
    """Fig. 10: Latency vs loss, 1200 Mbps goodput, 10 Gb network."""
    return (
        "Fig 10: Latency vs. loss, 1200 Mbps goodput, 10 Gb network (daemon)",
        _loss_figure(TEN_GIGABIT, 1200),
    )


def fig11_loss_140_1g() -> Tuple[str, Series]:
    """Fig. 11: Latency vs loss, 140 Mbps goodput, 1 Gb network."""
    return (
        "Fig 11: Latency vs. loss, 140 Mbps goodput, 1 Gb network (daemon)",
        _loss_figure(GIGABIT, 140),
    )


def fig12_loss_350_1g() -> Tuple[str, Series]:
    """Fig. 12: Latency vs loss, 350 Mbps goodput, 1 Gb network."""
    return (
        "Fig 12: Latency vs. loss, 350 Mbps goodput, 1 Gb network (daemon)",
        _loss_figure(GIGABIT, 350),
    )


def fig13_positional_loss() -> Tuple[str, Series]:
    """Fig. 13: effect of the ring distance between the daemon losing
    messages and the daemon it loses from (20% positional loss)."""
    series: Series = {}
    for service in (DeliveryService.AGREED, DeliveryService.SAFE):
        for accelerated in (False, True):
            name = f"{service.name.lower()}-{'accel' if accelerated else 'orig'}"
            series[name] = positional_loss_sweep(
                accelerated=accelerated,
                params=TEN_GIGABIT,
                rate_mbps=480,
                distances=DISTANCES,
                profile=DAEMON,
                service=service,
            )
    return (
        "Fig 13: Latency vs. ring distance between loser and source "
        "(20% positional loss, 480 Mbps, 10 Gb, daemon)",
        series,
    )


def headline_max_throughput() -> Tuple[str, Series]:
    """The §I/§IV headline numbers: maximum goodput per implementation,
    protocol, network, and payload size."""
    series: Series = {}
    for params, net in ((GIGABIT, "1g"), (TEN_GIGABIT, "10g")):
        for profile in _PROFILES:
            for accelerated in (False, True):
                name = f"{net}-{profile.name}-{'accel' if accelerated else 'orig'}"
                series[name] = [
                    run_max_throughput(
                        profile=profile,
                        accelerated=accelerated,
                        params=params,
                        payload_size=1350,
                    )
                ]
    for profile in _PROFILES:
        series[f"10g-{profile.name}-accel-8850B"] = [
            run_max_throughput(
                profile=profile,
                accelerated=True,
                params=TEN_GIGABIT,
                payload_size=8850,
            )
        ]
    return ("Headline maximum throughputs (closed-loop senders)", series)


#: ``repro figure <key>`` -> (definition, file under ``benchmarks/results/``).
FIGURES: Dict[str, Tuple[Callable[[], Tuple[str, Series]], str]] = {
    "2": (fig02_agreed_1g, "fig02.txt"),
    "3": (fig03_safe_1g, "fig03.txt"),
    "4": (fig04_agreed_10g, "fig04.txt"),
    "5": (fig05_agreed_payload_10g, "fig05.txt"),
    "6": (fig06_safe_10g, "fig06.txt"),
    "7": (fig07_safe_payload_10g, "fig07.txt"),
    "8": (fig08_safe_low_10g, "fig08.txt"),
    "9": (fig09_loss_480_10g, "fig09.txt"),
    "10": (fig10_loss_1200_10g, "fig10.txt"),
    "11": (fig11_loss_140_1g, "fig11.txt"),
    "12": (fig12_loss_350_1g, "fig12.txt"),
    "13": (fig13_positional_loss, "fig13.txt"),
    "headline": (headline_max_throughput, "headline.txt"),
}

"""Every committed result: one table of how each is produced and checked.

:data:`FIGURES` maps a key to a :class:`Figure`: the file it writes under
``benchmarks/results/``, a ``run()`` that returns ``(title, data)``, and
the shape checks DESIGN.md §4 expects of that data.  The data is a
:data:`Series` of :class:`~repro.bench.experiments.ExperimentPoint`
curves for the paper's Figs. 2-13, the headline maxima and the
ablations, or a :class:`~repro.bench.report.Table` for Fig. 1, the
mechanism and the scaling tables (:mod:`repro.bench.tables`).  Each
check is a ``(description, predicate)`` pair evaluated on the data the
run just produced.  ``repro figure <key>|all`` is the one producer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Union

from repro.bench.ablations import (
    accelerated_window_sweep,
    jumbo_frame_comparison,
    priority_method_comparison,
    switch_buffer_sweep,
)
from repro.bench.experiments import (
    ExperimentPoint,
    loss_sweep,
    positional_loss_sweep,
    run_max_throughput,
    sweep_rates,
)
from repro.bench.report import Table, format_series, format_table
from repro.bench.tables import (
    fig01_schedule,
    mechanism_rounds_and_dead_air,
    scaling_ring_count,
    scaling_ring_size,
)
from repro.core.messages import DeliveryService
from repro.net.params import GIGABIT, TEN_GIGABIT
from repro.sim.profiles import DAEMON, LIBRARY, SPREAD

Series = Dict[str, List[ExperimentPoint]]
Data = Union[Series, Table]

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




# ----------------------------------------------------------------------
# Shape checks: (description, predicate on the data run() returned)
# ----------------------------------------------------------------------

Check = Tuple[str, Callable[[Data], bool]]

_IMPLS = ("library", "daemon", "spread")


def _max_goodput(points: Sequence[ExperimentPoint]) -> float:
    return max(point.goodput_mbps for point in points)


def _latency_at(points: Sequence[ExperimentPoint], x: float) -> float:
    """Latency of the curve's point at ``x`` (KeyError if it has none)."""
    return {round(point.x): point.latency_us for point in points}[x]


def _ends(points: Sequence[ExperimentPoint]) -> Tuple[ExperimentPoint, ExperimentPoint]:
    """The curve's points at its smallest and its largest x."""
    ordered = sorted(points, key=lambda point: point.x)
    return ordered[0], ordered[-1]


def _column(table: Table, index: int) -> List[float]:
    return [float(row[index]) for row in table.rows]


MEASURED: Check = (
    "every curve has points, all with positive latency",
    lambda s: all(points and all(p.latency_us > 0 for p in points) for points in s.values()),
)


def _fig2_accel_dominates(s: Series) -> bool:
    return all(
        _max_goodput(s[f"{impl}-accel"]) > _max_goodput(s[f"{impl}-orig"]) for impl in _IMPLS
    )


def _fig5_gain(s: Series, impl: str) -> float:
    return _max_goodput(s[f"{impl}-8850B"]) / _max_goodput(s[f"{impl}-1350B"])


def _fig9_penalty_and_parity(s: Series) -> bool:
    """At the highest loss rate: accelerated Agreed pays > 20%,
    accelerated Safe stays within 10% of the original."""
    def worst(name):
        return _ends(s[name])[1].latency_us

    return (
        worst("agreed-accel") > worst("agreed-orig") * 1.2
        and worst("safe-accel") < worst("safe-orig") * 1.10
    )


def _fig12_accel_safe_wins(s: Series) -> bool:
    orig = {point.x: point.latency_us for point in s["safe-orig"]}
    return all(point.latency_us < orig[point.x] for point in s["safe-accel"])


def _fig13_grows_with_distance(s: Series) -> bool:
    return all(
        nearest.latency_us < farthest.latency_us
        for nearest, farthest in map(_ends, s.values())
    )


def _best(s: Series, name: str) -> float:
    """A headline series' one closed-loop goodput."""
    return s[name][0].goodput_mbps


def _headline_in_range(s: Series) -> bool:
    return (
        _best(s, "1g-spread-accel") > 900
        and _best(s, "10g-library-accel") > 3800
        and _best(s, "10g-spread-accel") > 1900
        and _best(s, "10g-spread-accel-8850B") > _best(s, "10g-spread-accel") * 1.5
    )


def _window_sweep_full_beats_none(s: Series) -> bool:
    by_window = sorted(s.items(), key=lambda item: int(item[0].split("=")[1].split("/")[0]))
    return by_window[-1][1][0].latency_us < by_window[0][1][0].latency_us * 0.6


def _schedule_tokens(cell: str) -> List[str]:
    return [entry for entry in cell.split() if entry.startswith("T")]


def _scaling_advantage(t: Table) -> List[float]:
    return [orig / accel for orig, accel in zip(_column(t, 1), _column(t, 2))]


def _ring_count_scale(t: Table, column: int) -> Dict[int, float]:
    return dict(zip((int(row[0]) for row in t.rows), _column(t, column)))


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """One file under ``benchmarks/results/``: its producer and its shape."""

    filename: str
    run: Callable[[], Tuple[str, Data]]
    checks: Tuple[Check, ...]
    #: Header of the curves' first column (a table names its own columns).
    x_label: str = "rate_mbps"

    def render(self, title: str, data: Data) -> str:
        if isinstance(data, Table):
            return format_table(title, data.headers, data.rows)
        return format_series(title, data, self.x_label)

    def check(self, data: Data) -> List[Tuple[str, bool]]:
        """``(description, passed)`` for every check, in order."""
        return [(description, bool(predicate(data))) for description, predicate in self.checks]


#: ``repro figure <key>`` → how ``benchmarks/results/<filename>`` is made.
FIGURES: Dict[str, Figure] = {
    "1": Figure("fig01.txt", fig01_schedule, (
        ("original: participant 0 sends 1-5, then the token (T5)",
         lambda t: t.rows[0][1].split()[:6] == ["1", "2", "3", "4", "5", "T5"]),
        ("accelerated: participant 0 sends 1 2, the token (T5), then 3-5",
         lambda t: t.rows[0][2].split()[:6] == ["1", "2", "T5", "3", "4", "5"]),
        ("every participant's tokens carry the same seqs in both protocols",
         lambda t: all(_schedule_tokens(r[1]) == _schedule_tokens(r[2]) for r in t.rows)),
    )),
    "2": Figure("fig02.txt", fig02_agreed_1g, (
        MEASURED,
        ("1GbE: accelerated max goodput beats original (all impls)", _fig2_accel_dominates),
        ("1GbE @500Mbps: accelerated latency < 70% of original",
         lambda s: _latency_at(s["spread-accel"], 500)
         < _latency_at(s["spread-orig"], 500) * 0.7),
    )),
    "3": Figure("fig03.txt", fig03_safe_1g, (MEASURED,)),
    "4": Figure("fig04.txt", fig04_agreed_10g, (
        MEASURED,
        ("10GbE hierarchy: library > daemon > spread",
         lambda s: _max_goodput(s["library-accel"]) > _max_goodput(s["daemon-accel"])
         > _max_goodput(s["spread-accel"])),
    )),
    "5": Figure("fig05.txt", fig05_agreed_payload_10g, (
        MEASURED,
        ("8850B gain ordered spread > daemon > library > 1.2x",
         lambda s: _fig5_gain(s, "spread") > _fig5_gain(s, "daemon")
         > _fig5_gain(s, "library") > 1.2),
    )),
    "6": Figure("fig06.txt", fig06_safe_10g, (MEASURED,)),
    "7": Figure("fig07.txt", fig07_safe_payload_10g, (MEASURED,)),
    "8": Figure("fig08.txt", fig08_safe_low_10g, (
        MEASURED,
        ("Safe/10GbE crossover: orig wins at 100 Mbps, accel wins at 1000 Mbps",
         lambda s: _latency_at(s["spread-orig"], 100) < _latency_at(s["spread-accel"], 100)
         and _latency_at(s["spread-accel"], 1000) < _latency_at(s["spread-orig"], 1000)),
    )),
    "9": Figure("fig09.txt", fig09_loss_480_10g, (
        MEASURED,
        ("loss @480Mbps/10GbE: Agreed penalty, Safe parity", _fig9_penalty_and_parity),
    ), x_label="loss_%"),
    "10": Figure("fig10.txt", fig10_loss_1200_10g, (MEASURED,), x_label="loss_%"),
    "11": Figure("fig11.txt", fig11_loss_140_1g, (MEASURED,), x_label="loss_%"),
    "12": Figure("fig12.txt", fig12_loss_350_1g, (
        MEASURED,
        ("loss @350Mbps/1GbE: accelerated Safe wins at every loss rate", _fig12_accel_safe_wins),
    ), x_label="loss_%"),
    "13": Figure("fig13.txt", fig13_positional_loss, (
        MEASURED,
        ("latency grows with loser-source ring distance", _fig13_grows_with_distance),
    ), x_label="distance"),
    "headline": Figure("headline.txt", headline_max_throughput, (
        ("headline maxima in calibrated ranges", _headline_in_range),
        ("accelerated beats original on every implementation and fabric",
         lambda s: all(_best(s, f"{net}-{impl}-accel") > _best(s, f"{net}-{impl}-orig")
                       for net in ("1g", "10g") for impl in _IMPLS)),
        ("10GbE hierarchy: library > daemon > spread",
         lambda s: _best(s, "10g-library-accel") > _best(s, "10g-daemon-accel")
         > _best(s, "10g-spread-accel")),
        ("8850B payloads raise every implementation's maximum > 1.2x",
         lambda s: all(_best(s, f"10g-{impl}-accel-8850B") > _best(s, f"10g-{impl}-accel") * 1.2
                       for impl in _IMPLS)),
    )),
    "mechanism": Figure("mechanism.txt", mechanism_rounds_and_dead_air, (
        ("accelerated token rotations are faster at every rate",
         lambda t: all(a < o for o, a in zip(_column(t, 1), _column(t, 2)))),
        ("accelerated leaves no more dead air at every rate",
         lambda t: all(a <= o + 1e-9 for o, a in zip(_column(t, 3), _column(t, 4)))),
    )),
    "ablation-window": Figure("ablation_window.txt", accelerated_window_sweep, (
        ("full Accelerated window < 60% of the original protocol's latency",
         _window_sweep_full_beats_none),
    )),
    "ablation-priority": Figure("ablation_priority.txt", priority_method_comparison, (
        ("aggressive priority within 1.15x of post-token latency at every rate",
         lambda s: all(fast.latency_us <= safe.latency_us * 1.15
                       for fast, safe in zip(s["aggressive"], s["post_token"]))),
    )),
    "ablation-buffers": Figure("ablation_buffers.txt", switch_buffer_sweep, (
        ("4KiB buffers force more retransmissions than 256KiB (accelerated)",
         lambda s: s["accel-4KiB"][0].retransmissions > s["accel-256KiB"][0].retransmissions),
        ("4KiB buffers cost > 15% of the accelerated 256KiB goodput",
         lambda s: s["accel-4KiB"][0].goodput_mbps < s["accel-256KiB"][0].goodput_mbps * 0.85),
        ("256KiB buffers: accelerated goodput beats original",
         lambda s: s["accel-256KiB"][0].goodput_mbps > s["orig-256KiB"][0].goodput_mbps),
    )),
    "ablation-jumbo": Figure("ablation_jumbo.txt", jumbo_frame_comparison, (
        ("jumbo frames keep >= 98% of the fragmented goodput",
         lambda s: s["mtu9000-jumbo"][0].goodput_mbps
         >= s["mtu1500-fragmented"][0].goodput_mbps * 0.98),
    )),
    "scaling": Figure("scaling.txt", scaling_ring_size, (
        ("original latency grows from the smallest ring to the largest",
         lambda t: _column(t, 1)[-1] > _column(t, 1)[0]),
        ("accelerated latency grows from the smallest ring to the largest",
         lambda t: _column(t, 2)[-1] > _column(t, 2)[0]),
        ("accelerated wins at every ring size past the smallest",
         lambda t: all(a < o for o, a in zip(_column(t, 1)[1:], _column(t, 2)[1:]))),
        ("the accelerated advantage is larger on the largest ring than the smallest",
         lambda t: _scaling_advantage(t)[-1] > _scaling_advantage(t)[0]),
    )),
    "scaling-rings": Figure("scaling_rings.txt", scaling_ring_count, (
        ("two rings order >= 1.7x one ring's events and goodput",
         lambda t: all(_ring_count_scale(t, c)[2] >= 1.7 * _ring_count_scale(t, c)[1]
                       for c in (1, 2))),
        ("four rings order more events and goodput than two",
         lambda t: all(_ring_count_scale(t, c)[4] > _ring_count_scale(t, c)[2]
                       for c in (1, 2))),
    )),
}

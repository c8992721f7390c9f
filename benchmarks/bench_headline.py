"""Headline numbers of the paper's abstract and Section IV.

Maximum goodput per implementation, protocol, fabric, and payload size,
measured with closed-loop senders: the counterpart of "Spread reaches
over 920 Mbps on 1 GbE", "the daemon- and library-based prototypes reach
3.3 and 4.6 Gbps", and "with 8850-byte payloads, throughput reaches
5.2 / 6 / 7.3 Gbps".
"""

from repro.bench.figures import FIGURES
from repro.bench.runner import run_figure


def test_headline_max_throughput(benchmark):
    title, series = run_figure(benchmark, *FIGURES["headline"])
    best = {name: points[0].goodput_mbps for name, points in series.items()}
    # Accelerated beats original on every implementation and fabric.
    for net in ("1g", "10g"):
        for impl in ("library", "daemon", "spread"):
            assert best[f"{net}-{impl}-accel"] > best[f"{net}-{impl}-orig"]
    # The implementation hierarchy on 10 GbE: library > daemon > spread.
    assert best["10g-library-accel"] > best["10g-daemon-accel"] > best["10g-spread-accel"]
    # Large payloads raise maximum throughput substantially.
    for impl in ("library", "daemon", "spread"):
        assert best[f"10g-{impl}-accel-8850B"] > best[f"10g-{impl}-accel"] * 1.2

"""Benchmark reporting: paper-style series tables, saved to disk.

Metrics collected by a :class:`~repro.obs.observer.MetricsObserver`
during a benchmark run can be saved as JSON next to the results
(:func:`save_metrics_json`); :func:`repro.obs.export.render_table`
renders them as a table.
"""

from __future__ import annotations

import os
from typing import Dict, List, NamedTuple, Sequence

from repro.bench.experiments import ExperimentPoint
from repro.obs.export import save_json

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))), "benchmarks", "results")


class Table(NamedTuple):
    """A result that is not a set of curves: column headers and rows of
    rendered cells."""

    headers: Sequence[str]
    rows: List[List[str]]


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    title: str,
    series: Dict[str, List[ExperimentPoint]],
    x_label: str = "rate_mbps",
) -> str:
    """Render several curves of one figure as stacked tables."""
    blocks = [title, "=" * len(title)]
    headers = [x_label, "goodput", "lat_us", "worst5_us", "retrans"]
    for name, points in series.items():
        rows = [point.row() for point in points]
        blocks.append("")
        blocks.append(format_table(name, headers, rows))
    return "\n".join(blocks)


def save_results(filename: str, content: str) -> str:
    """Save a rendered figure under ``benchmarks/results/``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    with open(path, "w") as handle:
        handle.write(content + "\n")
    return path


def save_metrics_json(filename: str, source) -> str:
    """Save an observer's metrics snapshot as JSON under
    ``benchmarks/results/``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    return save_json(path, source)

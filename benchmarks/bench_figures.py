"""Figs. 2–13: regenerate every latency/throughput/loss figure of the paper.

One parametrized target over :data:`repro.bench.figures.FIGURES` (the
headline table has its own asserts in ``bench_headline.py``).  The
simulation is deterministic, so each figure runs one round; the rendered
series are saved as ``benchmarks/results/figNN.txt``.
"""

import pytest

from repro.bench.figures import FIGURES
from repro.bench.runner import run_figure


@pytest.mark.parametrize(
    "figure_fn, filename",
    [
        pytest.param(figure_fn, filename, id=figure_fn.__name__)
        for key, (figure_fn, filename) in FIGURES.items()
        if key.isdigit()
    ],
)
def test_figure(benchmark, figure_fn, filename):
    title, series = run_figure(benchmark, figure_fn, filename)
    for name, points in series.items():
        assert points, f"empty series {name}"
        assert all(p.latency_us > 0 for p in points)

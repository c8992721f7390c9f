"""Benchmark harness regenerating every figure in the paper.

Each committed result under ``benchmarks/results/`` is one entry of
:data:`repro.bench.figures.FIGURES`: its producer (curves run on the
engine in :mod:`repro.bench.experiments`, tables in
:mod:`repro.bench.tables`, ablations in :mod:`repro.bench.ablations`)
and its shape checks.  ``python -m repro figure <key>|all`` prints,
saves and checks them; EXPERIMENTS.md records paper-vs-measured for
each.  Performance is measured by ``benchmarks/e2e``; the seeded
benchmark windows behind the figures are pinned, like every other
seeded run, by ``tests/golden/scenario_digests.json`` (``bench/``).
"""

from repro.bench.experiments import (
    ExperimentPoint,
    run_point,
    sweep_rates,
    run_max_throughput,
    run_loss_point,
    loss_sweep,
    positional_loss_sweep,
)
from repro.bench.report import format_table, save_results
from repro.bench.windows import window_for

__all__ = [
    "ExperimentPoint",
    "run_point",
    "sweep_rates",
    "run_max_throughput",
    "run_loss_point",
    "loss_sweep",
    "positional_loss_sweep",
    "format_table",
    "save_results",
    "window_for",
]

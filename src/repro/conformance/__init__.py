"""Differential conformance checking for the protocol variants.

The paper's central claim is behavioural equivalence: the Accelerated
Ring changes *when* messages and the token are sent, but the delivered
total order and the EVS guarantees must be indistinguishable from the
original Totem protocol (PAPER.md §III).  This package turns that claim
into tooling:

* :mod:`repro.conformance.differ` — a differential oracle that drives
  one workload + fault plan through the original, accelerated, and
  Spread-daemon variants on the deterministic simulator and compares
  the per-participant delivery sequences.
* :mod:`repro.conformance.explorer` — a schedule source that
  systematically enumerates small fault schedules anchored at
  protocol-meaningful instants (token arrivals) instead of sampling
  them randomly like ``repro soak``, judged by the differential.
* :mod:`repro.conformance.multiring` — the sharded-ordering oracle:
  per-group streams must be identical across ring counts (fault-free),
  identical from every vantage, and per-shard EVS must stay clean
  under a per-ring depth-1 fault grid.

Both searches, like ``repro soak``, run on the one explorer
(:mod:`repro.faults.explorer`), which merges the protocol-branch
coverage of :mod:`repro.obs.coverage` over every run.

Everything is seeded and deterministic; divergences serialize to JSON
artifacts that replay with ``python -m repro conformance replay``.
"""

from repro.conformance.differ import (
    ConformanceDivergence,
    ConformanceReport,
    run_differential,
)
from repro.conformance.explorer import explore_instants
from repro.conformance.multiring import (
    ShardedReport,
    ShardedRun,
    ShardedWorkload,
    explore_grid,
    run_sharded,
    run_sharded_differential,
)
from repro.conformance.variants import VARIANT_NAMES, VariantRun, run_variant
from repro.conformance.workload import Workload, make_label, parse_label
from repro.obs.coverage import CoverageObserver, CoverageReport

__all__ = [
    "ConformanceDivergence",
    "ConformanceReport",
    "CoverageObserver",
    "CoverageReport",
    "ShardedReport",
    "ShardedRun",
    "ShardedWorkload",
    "VARIANT_NAMES",
    "VariantRun",
    "Workload",
    "explore_grid",
    "explore_instants",
    "make_label",
    "parse_label",
    "run_differential",
    "run_sharded",
    "run_sharded_differential",
    "run_variant",
]

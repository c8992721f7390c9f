"""Differential conformance checking for the protocol variants.

The paper's central claim is behavioural equivalence: the Accelerated
Ring changes *when* messages and the token are sent, but the delivered
total order and the EVS guarantees must be indistinguishable from the
original Totem protocol (PAPER.md §III).  This package turns that claim
into tooling:

* :mod:`repro.conformance.differ` — the one differential oracle,
  :func:`run_differential`, with one report, :class:`ConformanceReport`.
  It drives one workload through two or more variants and compares
  their per-participant (or per-group) delivery streams.  Only the
  substrate that produces a variant's streams differs:
  :mod:`repro.conformance.variants` runs the original, accelerated and
  Spread-daemon variants on the deterministic simulator;
  :mod:`repro.conformance.multiring` an N-ring sharded cluster
  (``rings-N``: per-group streams must not depend on the ring count,
  every vantage must agree, every ring must stay EVS-clean);
  :mod:`repro.conformance.realtime` a serialized barrier script on the
  simulator and on real loopback nodes (``sim`` / ``real``).
* :mod:`repro.conformance.explorer` — a schedule source that
  systematically enumerates small fault schedules anchored at
  protocol-meaningful instants (token arrivals) instead of sampling
  them randomly like ``repro soak``, judged by the differential.
  :func:`~repro.conformance.multiring.explore_grid` sweeps a per-ring
  depth-1 fault grid over a sharded cluster under per-shard EVS.

Both searches, like ``repro soak``, run on the one explorer
(:mod:`repro.faults.explorer`), which merges the protocol-branch
coverage of :mod:`repro.obs.coverage` over every run.

Everything is seeded and deterministic (the ``real`` substrate's timing
aside); every differential report serializes to JSON and replays with
``python -m repro conformance replay``.
"""

from repro.conformance.differ import (
    ConformanceDivergence,
    ConformanceReport,
    run_differential,
)
from repro.conformance.explorer import explore_instants
from repro.conformance.multiring import (
    ShardedRun,
    ShardedWorkload,
    explore_grid,
    run_sharded,
)
from repro.conformance.realtime import RealtimeWorkload
from repro.conformance.variants import VARIANT_NAMES, VariantRun, run_variant
from repro.conformance.workload import Workload, make_label, parse_label
from repro.obs.coverage import CoverageObserver, CoverageReport

__all__ = [
    "ConformanceDivergence",
    "ConformanceReport",
    "CoverageObserver",
    "CoverageReport",
    "RealtimeWorkload",
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
    "run_variant",
]

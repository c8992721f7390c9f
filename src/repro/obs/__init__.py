"""Protocol observability: metrics, observer hooks, and exporters.

The observability layer has four parts:

* :mod:`repro.obs.metrics` — zero-dependency counters, gauges, and
  HDR-style fixed-bucket histograms with deterministic snapshots.
* :mod:`repro.obs.observer` — the :class:`ProtocolObserver` hook
  interface threaded through every layer of the stack, one hook per
  protocol event (eight in all), plus :class:`MetricsObserver` which
  turns hooks into metrics.
* :mod:`repro.obs.export` — JSON and table exporters for snapshots.
* :mod:`repro.obs.coverage` — :class:`CoverageObserver` counts which
  protocol branches a run reached; the conformance oracles and the
  fault explorer report it.

Quickstart::

    from repro import ClusterBuilder
    from repro.obs import MetricsObserver, to_json

    observer = MetricsObserver()
    cluster = ClusterBuilder().hosts(8).observe(observer).build()
    ...
    print(to_json(observer.registry))
"""

from repro.obs.export import load_json, render_table, save_json, to_json
from repro.obs.metrics import (
    COUNT_BOUNDS,
    LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    geometric_bounds,
    merge_registries,
)
from repro.obs.observer import (
    MetricsObserver,
    NullObserver,
    ProtocolObserver,
    effective_observer,
)

__all__ = [
    "COUNT_BOUNDS",
    "LATENCY_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsObserver",
    "MetricsRegistry",
    "NullObserver",
    "ProtocolObserver",
    "effective_observer",
    "geometric_bounds",
    "load_json",
    "merge_registries",
    "render_table",
    "save_json",
    "to_json",
]

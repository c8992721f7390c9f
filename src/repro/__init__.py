"""Accelerated Ring: fast total ordering for modern data centers.

This package is a full reproduction of Babay & Amir, *Fast Total Ordering
for Modern Data Centers* (ICDCS 2015).  It provides:

* :mod:`repro.core` — the Accelerated Ring ordering protocol and the
  original Totem Ring baseline, written sans-io so the same engine runs in
  the simulator and over real sockets.
* :mod:`repro.net` — a discrete-event network substrate (buffered switch,
  links, host CPU model, loss models) standing in for the paper's 1/10 GbE
  testbed.
* :mod:`repro.membership` — a Totem-style membership algorithm (gather /
  commit / recovery) supporting crashes, partitions, and merges.
* :mod:`repro.evs` — Extended Virtual Synchrony configurations and a trace
  checker for the delivery guarantees.
* :mod:`repro.sim` — drivers binding protocol engines to simulated hosts,
  plus the LIBRARY / DAEMON / SPREAD implementation profiles.
* :mod:`repro.runtime` — a real asyncio/UDP runtime (library mode and
  daemon/client mode).
* :mod:`repro.spread` — a Spread-like toolkit layer: groups, multi-group
  multicast, message packing and fragmentation.
* :mod:`repro.workloads` / :mod:`repro.bench` — workload generators and the
  benchmark harness that regenerates every figure in the paper.
* :mod:`repro.obs` — protocol observability: observer hooks on every
  engine event, metric registries, and JSON/table exporters.
* :mod:`repro.faults` — deterministic fault injection: typed fault
  plans, a seeded injector over first-class injection points, and an
  EVS-checked chaos-scenario library (``repro chaos``).
"""

from repro.core.config import ProtocolConfig, TokenPriorityMethod
from repro.core.messages import DataMessage, DeliveryService
from repro.core.token import RegularToken
from repro.core.participant import AcceleratedRingParticipant
from repro.core.original import OriginalRingParticipant
from repro.obs.export import render_table, save_json, to_json
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observer import (
    MetricsObserver,
    NullObserver,
    ProtocolObserver,
)
from repro.faults import FaultInjector, FaultPlan, PlanBuilder, run_scenario
from repro.sim.build import ClusterBuilder, TopologySpec
from repro.sim.cluster import RingCluster
from repro.sim.profiles import ImplementationProfile, LIBRARY, DAEMON, SPREAD
from repro.net.params import NetworkParams, GIGABIT, TEN_GIGABIT

__version__ = "1.0.0"

__all__ = [
    "ProtocolConfig",
    "TokenPriorityMethod",
    "DataMessage",
    "DeliveryService",
    "RegularToken",
    "AcceleratedRingParticipant",
    "OriginalRingParticipant",
    "RingCluster",
    "ClusterBuilder",
    "TopologySpec",
    "ImplementationProfile",
    "LIBRARY",
    "DAEMON",
    "SPREAD",
    "NetworkParams",
    "GIGABIT",
    "TEN_GIGABIT",
    "ProtocolObserver",
    "NullObserver",
    "MetricsObserver",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "to_json",
    "save_json",
    "render_table",
    "FaultInjector",
    "FaultPlan",
    "PlanBuilder",
    "run_scenario",
    "__version__",
]

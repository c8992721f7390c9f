"""Drivers binding the sans-io protocol engines to the simulated network.

This is where the paper's three implementations become comparable: the
same protocol engine runs under three :class:`ImplementationProfile`s
(LIBRARY, DAEMON, SPREAD) that differ only in per-message CPU costs and
header sizes — exactly the differences the paper attributes to the
library-based prototype, the daemon-based prototype, and production
Spread.
"""

from repro.sim.profiles import ImplementationProfile, LIBRARY, DAEMON, SPREAD
from repro.sim.driver import ProtocolHost
from repro.sim.cluster import RingCluster
from repro.sim.build import TopologySpec, ClusterBuilder

__all__ = [
    "ImplementationProfile",
    "LIBRARY",
    "DAEMON",
    "SPREAD",
    "ProtocolHost",
    "RingCluster",
    "TopologySpec",
    "ClusterBuilder",
]

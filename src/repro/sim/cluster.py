"""The paper's 8-server testbed: a ring of bare ordering engines.

:class:`RingCluster` is what :meth:`repro.sim.build.ClusterBuilder.
build_ring` returns — participants (accelerated or original), an
implementation profile, and a network parameter set wired into a
ready-to-run ring, mirroring the benchmark setup of paper §IV-A: every
server runs one daemon, one sending client, and one receiving client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.token import initial_token
from repro.net.simulator import Simulator
from repro.net.fabric import FabricTopology
from repro.obs.observer import ProtocolObserver
from repro.sim.driver import ProtocolHost
from repro.util.errors import FaultError
from repro.util.stats import LatencyStats


@dataclass
class ClusterStats:
    """Aggregated statistics for one run."""

    latency: LatencyStats
    goodput_bps: float
    retransmissions: int
    token_rounds: int
    messages_sent: int
    switch_drops: int
    per_sender_worst_5pct_mean: float = 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency.mean


class RingCluster:
    """A ring of protocol hosts on one simulated switch."""

    def __init__(
        self,
        sim: Simulator,
        topology: FabricTopology,
        drivers: Dict[int, ProtocolHost],
        ring_id: int = 1,
        observer: Optional[ProtocolObserver] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.drivers = drivers
        self.ring_id = ring_id
        self.ring = sorted(drivers)
        #: The observer shared by every participant (None when unobserved).
        self.observer = observer
        self._started = False

    @property
    def leader(self) -> ProtocolHost:
        return self.drivers[self.ring[0]]

    def driver(self, pid: int) -> ProtocolHost:
        return self.drivers[pid]

    def set_measure_from(self, time: float) -> None:
        """Exclude messages submitted before ``time`` from latency stats
        (warm-up window, as benchmark practice dictates)."""
        for driver in self.drivers.values():
            driver.measure_from = time

    def start(self) -> None:
        """Inject the first regular token at the ring leader.

        Membership establishment is out of scope for the normal-case
        benchmarks (paper §III assumes "the membership of the ring has been
        established, and the first regular token has been sent").
        """
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        self.leader.inject_token(initial_token(self.ring_id))

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    # -- fault surface (driven by repro.faults) ------------------------

    def _driver(self, pid: int) -> ProtocolHost:
        try:
            return self.drivers[pid]
        except KeyError:
            raise FaultError(
                f"unknown pid {pid}: cluster hosts are {self.ring}"
            ) from None

    def crash(self, pid: int) -> None:
        """Fail-stop ``pid``.  With no membership layer the ring cannot
        reform — normal-case clusters use this only to measure stall
        behaviour.  Idempotent."""
        self._driver(pid).host.crash()

    def pause(self, pid: int) -> None:
        """GC-stall ``pid``: frames accumulate, nothing executes."""
        self._driver(pid).host.pause()

    def resume(self, pid: int) -> None:
        self._driver(pid).host.unpause()

    def partition(self, *groups) -> None:
        self.topology.switch.set_partition(*groups)

    def heal(self) -> None:
        self.topology.switch.heal()

    # ------------------------------------------------------------------

    def aggregate(self) -> ClusterStats:
        """Merge per-host statistics into cluster-level results.

        Latency samples pool across every receiver (each message is
        measured at all 8 receiving clients, like the paper's benchmark).
        Goodput is the mean per-receiver delivered payload rate — i.e. the
        application data rate one receiving client observes.
        """
        latency = LatencyStats()
        goodputs: List[float] = []
        retransmissions = 0
        token_rounds = 0
        messages_sent = 0
        worst: List[float] = []
        for driver in self.drivers.values():
            stats = driver.stats
            latency.merge(stats.latency)
            goodputs.append(stats.throughput.goodput_bps())
            retransmissions += stats.retransmissions
            token_rounds = max(token_rounds, stats.token_rounds)
            messages_sent += stats.messages_sent
            try:
                worst.append(stats.worst_5pct_mean())
            except ValueError:
                pass
        return ClusterStats(
            latency=latency,
            goodput_bps=sum(goodputs) / len(goodputs) if goodputs else 0.0,
            retransmissions=retransmissions,
            token_rounds=token_rounds,
            messages_sent=messages_sent,
            switch_drops=self.topology.switch.total_drops,
            per_sender_worst_5pct_mean=(sum(worst) / len(worst)) if worst else 0.0,
        )

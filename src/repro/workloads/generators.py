"""Workload generators.

The paper's benchmark runs one *sending client* per server injecting
messages at a fixed rate, and measures the average delivery latency at the
receiving clients while sweeping the aggregate rate (§IV-A).
:class:`FixedRateWorkload` reproduces that.  :class:`ClosedLoopWorkload`
reproduces the library-prototype methodology, where each process sends as
many messages as flow control allows whenever it holds the token.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.core.messages import DeliveryService
from repro.core.participant import AcceleratedRingParticipant
from repro.util.errors import ConfigurationError

#: A sender handle: ``submit(payload_size, service)``.
Submitter = Callable[[int, DeliveryService], None]
#: The ordering engine currently behind a sender (None while a
#: membership host has no ring).
Engine = Callable[[], Optional[AcceleratedRingParticipant]]


def _senders(cluster) -> List[Tuple[Submitter, Engine]]:
    """One ``(submit, engine)`` pair per sender, for any cluster shape.

    Protocol-mode clusters (:class:`~repro.sim.cluster.RingCluster`,
    protocol-mode :class:`~repro.multiring.cluster.MultiRingCluster`)
    expose ``drivers``; membership-mode clusters expose per-ring
    ``hosts`` instead.  Generators drive both through this one seam, so
    ``attach`` works on whatever :class:`~repro.sim.build.
    ClusterBuilder` built.  Ordering is deterministic: driver pid order,
    or (ring, pid) order for membership clusters.
    """
    try:
        drivers = cluster.drivers
    except (AttributeError, ConfigurationError):
        # Membership mode: a MembershipCluster has no ``drivers`` at
        # all, a MultiRingCluster refuses to merge them.
        drivers = None
    if drivers is not None:
        return [
            (driver.client_submit, lambda driver=driver: driver.participant)
            for driver in (drivers[pid] for pid in sorted(drivers))
        ]

    # MultiRingCluster.rings is a list; MembershipCluster.rings() is a
    # method (the per-pid view map) — only the former means "fan out".
    rings = cluster.rings if isinstance(getattr(cluster, "rings", None), list) else [cluster]

    # ``ring.hosts[pid]`` is looked up per call: a restart replaces the
    # host object, and traffic belongs to the current incarnation.
    def sender(ring, pid) -> Tuple[Submitter, Engine]:
        return (
            lambda size, service: ring.hosts[pid].submit(
                payload=b"", service=service, payload_size=size
            ),
            lambda: ring.hosts[pid].controller.ordering,
        )

    return [sender(ring, pid) for ring in rings for pid in sorted(ring.hosts)]


def _submitters(cluster) -> List[Submitter]:
    return [submit for submit, _engine in _senders(cluster)]


class FixedRateWorkload:
    """Every sender injects equal shares of an aggregate payload rate.

    Senders are phase-shifted so injections don't arrive in lockstep, and
    an optional seeded exponential jitter turns the arrival process into a
    Poisson stream.  Rates are *clean application data only* — header
    bytes do not count, exactly like the paper's throughput axis.
    """

    def __init__(
        self,
        payload_size: int,
        aggregate_rate_bps: float,
        service: DeliveryService = DeliveryService.AGREED,
        poisson: bool = False,
        seed: int = 1,
    ) -> None:
        if payload_size <= 0:
            raise ValueError(f"payload_size must be positive, got {payload_size}")
        if aggregate_rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {aggregate_rate_bps}")
        self.payload_size = payload_size
        self.aggregate_rate_bps = aggregate_rate_bps
        self.service = service
        self.poisson = poisson
        self.seed = seed
        self.messages_injected = 0

    def attach(self, cluster, start: float, stop: float) -> None:
        """Schedule injections on every sender between ``start`` and
        ``stop``.  Accepts any built cluster (protocol- or
        membership-mode, single- or multi-ring)."""
        senders = _submitters(cluster)
        per_sender_bps = self.aggregate_rate_bps / len(senders)
        interval = self.payload_size * 8.0 / per_sender_bps
        for index, submit in enumerate(senders):
            rng = random.Random(self.seed + index) if self.poisson else None
            phase = interval * index / len(senders)
            self._schedule_next(cluster, submit, start + phase, stop, interval, rng)

    def _schedule_next(self, cluster, submit, when, stop, interval, rng) -> None:
        if when >= stop:
            return
        def fire() -> None:
            submit(self.payload_size, self.service)
            self.messages_injected += 1
            gap = rng.expovariate(1.0 / interval) if rng else interval
            self._schedule_next(cluster, submit, cluster.sim.now + gap, stop, interval, rng)

        cluster.sim.schedule_at(when, fire)


class ClosedLoopWorkload:
    """Keep every sender's queue topped up (library-prototype methodology).

    Paper §IV-A: "For the library-based prototype, we controlled throughput
    by adjusting the personal window and having each process send as many
    messages as it was allowed ... each time it received the token."  We
    model that by refilling each participant's pending queue to a small
    multiple of its personal window on a fast periodic check.
    """

    def __init__(
        self,
        payload_size: int,
        service: DeliveryService = DeliveryService.AGREED,
        depth_factor: int = 2,
        check_interval: float = 20e-6,
    ) -> None:
        self.payload_size = payload_size
        self.service = service
        self.depth_factor = depth_factor
        self.check_interval = check_interval
        self.messages_injected = 0

    def attach(self, cluster, start: float, stop: float) -> None:
        """Accepts any built cluster, like :meth:`FixedRateWorkload.attach`."""
        for submit, engine in _senders(cluster):
            self._schedule_check(cluster, submit, engine, start, stop)

    def _schedule_check(self, cluster, submit, engine, when, stop) -> None:
        if when >= stop:
            return

        def fire() -> None:
            participant = engine()
            if participant is not None:
                target = participant.config.personal_window * self.depth_factor
                for _ in range(target - participant.pending_count):
                    submit(self.payload_size, self.service)
                    self.messages_injected += 1
            self._schedule_check(
                cluster, submit, engine, cluster.sim.now + self.check_interval, stop
            )

        cluster.sim.schedule_at(when, fire)


class BurstWorkload:
    """Each sender injects a burst of messages at fixed burst intervals.

    Exercises queue buildup and flow-control behaviour that smooth
    fixed-rate streams never trigger.
    """

    def __init__(
        self,
        payload_size: int,
        burst_size: int,
        burst_interval: float,
        service: DeliveryService = DeliveryService.AGREED,
    ) -> None:
        if burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {burst_size}")
        self.payload_size = payload_size
        self.burst_size = burst_size
        self.burst_interval = burst_interval
        self.service = service
        self.messages_injected = 0

    def attach(self, cluster, start: float, stop: float) -> None:
        """Accepts any built cluster, like :meth:`FixedRateWorkload.attach`."""
        senders = _submitters(cluster)
        for index, submit in enumerate(senders):
            phase = self.burst_interval * index / len(senders)
            self._schedule_burst(cluster, submit, start + phase, stop)

    def _schedule_burst(self, cluster, submit, when, stop) -> None:
        if when >= stop:
            return

        def fire() -> None:
            for _ in range(self.burst_size):
                submit(self.payload_size, self.service)
                self.messages_injected += 1
            self._schedule_burst(cluster, submit, cluster.sim.now + self.burst_interval, stop)

        cluster.sim.schedule_at(when, fire)

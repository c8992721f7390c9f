"""The fault-injection engine.

:class:`FaultInjector` compiles a validated :class:`~repro.faults.plan.
FaultPlan` into simulator events against a cluster.  It works through
first-class injection points — the fabric's frame filters
(:meth:`repro.net.fabric.Fabric.add_filter`), the hosts' receive
interceptors (:meth:`repro.net.host.SimHost.add_interceptor`), and the
cluster fault surface (``crash``/``restart``/``pause``/``resume``/
``partition``/``heal``/``arm_crash_after_append``) — never by
monkey-patching protocol internals, so injected behaviour is exactly
what a deployed system would see at the same layer.

Determinism: every probabilistic decision draws from one
``random.Random(seed)`` owned by the injector, and all scheduling goes
through the deterministic discrete-event simulator, so two runs of the
same plan with the same seed produce identical traces byte for byte.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.faults.events import (
    Crash,
    CrashAfterAppend,
    FaultEvent,
    Heal,
    LossBurst,
    Partition,
    Pause,
    RackPowerLoss,
    Recover,
    Resume,
    TokenDrop,
)
from repro.faults.plan import FaultPlan
from repro.net.packet import Frame, PortKind
from repro.util.errors import FaultError


class FaultInjector:
    """Drives one fault plan against one cluster.

    ``cluster`` is anything exposing the simulated fault surface:
    :class:`~repro.sim.membership_driver.MembershipCluster` (full
    crash/recover support), :class:`~repro.sim.cluster.RingCluster`
    (normal-case protocol; ``Recover`` is rejected because there is no
    membership layer to rejoin through), or ``KvCluster.ring(i)`` (the
    one surface that takes ``CrashAfterAppend``).
    """

    def __init__(
        self,
        cluster: Any,
        plan: FaultPlan,
        seed: int = 0,
        rng: Optional[random.Random] = None,
        observer: Optional[Any] = None,
    ) -> None:
        self.cluster = cluster
        self.plan = plan.validate(num_hosts=len(cluster.topology.hosts))
        self.rng = rng if rng is not None else random.Random(seed)
        self.observer = observer if observer is not None else getattr(
            cluster, "observer", None
        )
        #: Chronological log of applied events: ``{"t": sim-time, ...event}``.
        self.applied: List[Dict[str, Any]] = []
        self.partitions_active = 0
        self._armed = False

    # ------------------------------------------------------------------

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def switch(self):
        return self.cluster.topology.switch

    def arm(self) -> "FaultInjector":
        """Schedule every plan event, relative to the current sim time.

        Events that share a timestamp apply in plan order (the simulator
        breaks ties by schedule order).
        """
        if self._armed:
            raise FaultError("injector already armed")
        self._armed = True
        base = self.sim.now
        for event in self.plan.events:
            self.sim.schedule_at(base + event.at, self._apply, event)
        return self

    # ------------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        detail = event.to_dict()
        detail.pop("at", None)
        kind = detail.pop("kind")
        if isinstance(event, Crash):
            self.cluster.crash(event.pid)
        elif isinstance(event, Recover):
            restart = getattr(self.cluster, "restart", None)
            if restart is None:
                raise FaultError(
                    "this cluster has no membership layer: Recover is not supported"
                )
            restart(event.pid)
        elif isinstance(event, CrashAfterAppend):
            arm = getattr(self.cluster, "arm_crash_after_append", None)
            if arm is None:
                raise FaultError(
                    "this cluster has no write-ahead log: "
                    "CrashAfterAppend is not supported"
                )
            arm(event.pid, event.only_transactions)
        elif isinstance(event, Partition):
            self.cluster.partition(*event.groups)
            self.partitions_active = 1
            detail["active"] = self.partitions_active
        elif isinstance(event, Heal):
            self.cluster.heal()
            self.partitions_active = 0
            detail["active"] = self.partitions_active
        elif isinstance(event, TokenDrop):
            self._arm_token_drop(event)
        elif isinstance(event, LossBurst):
            self._arm_loss_burst(event)
        elif isinstance(event, RackPowerLoss):
            detail["pids"] = self._apply_rack_power_loss(event)
        elif isinstance(event, Pause):
            self.cluster.pause(event.pid)
        elif isinstance(event, Resume):
            self.cluster.resume(event.pid)
        else:
            raise FaultError(f"unknown fault event {event!r}")
        self.applied.append({"t": self.sim.now, "kind": kind, **detail})
        if self.observer is not None:
            self.observer.on_fault(kind, detail=detail, now=self.sim.now)

    # ------------------------------------------------------------------

    def _apply_rack_power_loss(self, event: RackPowerLoss) -> List[int]:
        """Crash every member of the rack; returns the resolved pids."""
        pids = event.pids
        if pids is None:
            racks = self.cluster.topology.racks
            try:
                pids = racks[event.rack]
            except KeyError:
                raise FaultError(
                    f"rack {event.rack} not in the fabric rack map "
                    f"(racks {sorted(racks)})"
                ) from None
        resolved = sorted(pids)
        for pid in resolved:
            self.cluster.crash(pid)
        return resolved

    def _arm_token_drop(self, event: TokenDrop) -> None:
        """Eat the next ``count`` token frames at the switch."""
        state = {"remaining": event.count}
        switch = self.switch

        def drop_token(frame: Frame, dst: int) -> bool:
            if frame.kind is not PortKind.TOKEN or state["remaining"] <= 0:
                return False
            state["remaining"] -= 1
            if state["remaining"] == 0:
                switch.remove_filter(drop_token)
            return True

        switch.add_filter(drop_token)

    def _arm_loss_burst(self, event: LossBurst) -> None:
        """Receiver-side loss at ``rate`` on the targeted hosts, removed
        after ``duration`` seconds of simulated time."""
        topology = self.cluster.topology
        pids = sorted(event.pids) if event.pids is not None else topology.host_ids
        rng = self.rng
        rate = event.rate

        def burst(frame: Frame) -> bool:
            return frame.kind is PortKind.DATA and rng.random() < rate

        hosts = []
        for pid in pids:
            host = topology.host(pid)
            host.add_interceptor(burst)
            hosts.append(host)

        def end_burst() -> None:
            for host in hosts:
                host.remove_interceptor(burst)
            if self.observer is not None:
                self.observer.on_fault(
                    "loss_burst_end",
                    detail={"pids": list(pids), "rate": rate},
                    now=self.sim.now,
                )

        self.sim.schedule(event.duration, end_burst)


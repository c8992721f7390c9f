"""Declarative fault plans.

A :class:`FaultPlan` is a time-ordered schedule of typed fault events
(:mod:`repro.faults.events`).  Plans are validated *before* anything
runs: a plan that recovers a process it never crashed, stacks a second
partition on an active one, or resumes a process that is not paused is a
scenario-authoring bug, and rejecting it up front keeps chaos runs
interpretable.

Plans are plain data — they serialize to JSON (:meth:`FaultPlan.to_json`
/ :meth:`FaultPlan.from_json`) so a scenario can live in a file, and the
:class:`PlanBuilder` DSL makes inline authoring read like a timeline::

    plan = (PlanBuilder()
            .crash(1, at=0.02)
            .partition({0, 2}, {3}, at=0.05)
            .heal(at=0.12)
            .recover(1, at=0.15)
            .build())
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    events_from_dicts,
)
from repro.util.errors import FaultError


class FaultPlan:
    """An immutable, time-sorted schedule of fault events."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        # sorted() is stable: events at equal times keep authoring order,
        # which the injector preserves at execution time too.
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda event: event.at)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.events == other.events

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.events)!r})"

    @property
    def horizon(self) -> float:
        """When the last scheduled event fires (loss bursts include their
        duration); 0.0 for an empty plan."""
        horizon = 0.0
        for event in self.events:
            end = event.at
            if isinstance(event, LossBurst):
                end += event.duration
            horizon = max(horizon, end)
        return horizon

    def pids(self) -> Set[int]:
        """Every pid the plan touches directly."""
        touched: Set[int] = set()
        for event in self.events:
            pid = getattr(event, "pid", None)
            if pid is not None:
                touched.add(pid)
            if isinstance(event, Partition):
                for group in event.groups:
                    touched |= group
            if isinstance(event, LossBurst) and event.pids is not None:
                touched |= event.pids
            if isinstance(event, RackPowerLoss) and event.pids is not None:
                touched |= event.pids
        return touched

    def crashed_pids(self) -> Set[int]:
        """Pids the plan ever crashes (for EVS-checker waivers)."""
        crashed: Set[int] = set()
        for event in self.events:
            if isinstance(event, (Crash, CrashAfterAppend)):
                crashed.add(event.pid)
            elif isinstance(event, RackPowerLoss) and event.pids is not None:
                crashed |= event.pids
        return crashed

    # -- validation ----------------------------------------------------

    def validate(self, num_hosts: Optional[int] = None) -> "FaultPlan":
        """Check per-event fields plus cross-event ordering invariants.

        Raises :class:`~repro.util.errors.FaultError` on the first
        problem; returns ``self`` so calls chain.
        """
        crashed: Set[int] = set()
        paused: Set[int] = set()
        partitioned = False
        # A rack_power_loss without explicit pids crashes a set only the
        # injector can resolve (it needs the topology's rack map), so the
        # crash/recover bookkeeping below turns best-effort once one is
        # seen: cluster-level crash/restart are idempotent, and rejecting
        # plausible plans would be worse than letting them run.
        rack_wildcard = False
        for event in self.events:
            event.validate()
            if num_hosts is not None:
                for pid in self._event_pids(event):
                    if not 0 <= pid < num_hosts:
                        raise FaultError(
                            f"{event.kind} at {event.at}: pid {pid} out of "
                            f"range for {num_hosts} hosts"
                        )
            if isinstance(event, (Crash, CrashAfterAppend)):
                if event.pid in crashed:
                    raise FaultError(
                        f"{event.kind} at {event.at}: pid {event.pid} is already crashed"
                    )
                crashed.add(event.pid)
                paused.discard(event.pid)
            elif isinstance(event, Recover):
                if event.pid not in crashed and not rack_wildcard:
                    raise FaultError(
                        f"recover at {event.at}: pid {event.pid} was never "
                        "crashed (recover-before-crash)"
                    )
                crashed.discard(event.pid)
            elif isinstance(event, RackPowerLoss):
                if event.pids is None:
                    rack_wildcard = True
                else:
                    for pid in sorted(event.pids):
                        if pid in crashed:
                            raise FaultError(
                                f"rack_power_loss at {event.at}: pid {pid} "
                                "is already crashed"
                            )
                        crashed.add(pid)
                        paused.discard(pid)
            elif isinstance(event, Partition):
                if partitioned:
                    raise FaultError(
                        f"partition at {event.at}: a partition is already "
                        "active (heal first; overlapping partitions are ambiguous)"
                    )
                partitioned = True
            elif isinstance(event, Heal):
                partitioned = False
            elif isinstance(event, Pause):
                if event.pid in paused:
                    raise FaultError(
                        f"pause at {event.at}: pid {event.pid} is already paused"
                    )
                if event.pid in crashed:
                    raise FaultError(
                        f"pause at {event.at}: pid {event.pid} is crashed"
                    )
                paused.add(event.pid)
            elif isinstance(event, Resume):
                if event.pid not in paused:
                    raise FaultError(
                        f"resume at {event.at}: pid {event.pid} is not paused"
                    )
                paused.discard(event.pid)
        return self

    @staticmethod
    def _event_pids(event: FaultEvent) -> Set[int]:
        pids: Set[int] = set()
        pid = getattr(event, "pid", None)
        if pid is not None:
            pids.add(pid)
        if isinstance(event, Partition):
            for group in event.groups:
                pids |= group
        if isinstance(event, LossBurst) and event.pids is not None:
            pids |= event.pids
        if isinstance(event, RackPowerLoss) and event.pids is not None:
            pids |= event.pids
        return pids

    # -- serialization -------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [event.to_dict() for event in self.events]

    @classmethod
    def from_dicts(cls, payloads: Iterable[Dict[str, Any]]) -> "FaultPlan":
        return cls(events_from_dicts(payloads))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dicts(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payloads = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"invalid fault-plan JSON: {exc}") from None
        if not isinstance(payloads, list):
            raise FaultError("fault-plan JSON must be a list of events")
        return cls.from_dicts(payloads)


class PlanBuilder:
    """Fluent builder for :class:`FaultPlan`.

    Each method appends one event and returns the builder; ``build()``
    sorts, validates, and freezes the plan.
    """

    def __init__(self) -> None:
        self._events: List[FaultEvent] = []

    def crash(self, pid: int, at: float) -> "PlanBuilder":
        self._events.append(Crash(at=at, pid=pid))
        return self

    def crash_after_append(
        self, pid: int, at: float, only_transactions: bool = False
    ) -> "PlanBuilder":
        self._events.append(CrashAfterAppend(at=at, pid=pid, only_transactions=only_transactions))
        return self

    def recover(self, pid: int, at: float) -> "PlanBuilder":
        self._events.append(Recover(at=at, pid=pid))
        return self

    def partition(self, *groups: Iterable[int], at: float) -> "PlanBuilder":
        self._events.append(
            Partition(at=at, groups=tuple(frozenset(group) for group in groups))
        )
        return self

    def heal(self, at: float) -> "PlanBuilder":
        self._events.append(Heal(at=at))
        return self

    def token_drop(self, at: float, count: int = 1) -> "PlanBuilder":
        self._events.append(TokenDrop(at=at, count=count))
        return self

    def loss_burst(
        self,
        at: float,
        duration: float,
        rate: float,
        pids: Optional[Iterable[int]] = None,
    ) -> "PlanBuilder":
        self._events.append(
            LossBurst(
                at=at,
                rate=rate,
                duration=duration,
                pids=None if pids is None else frozenset(pids),
            )
        )
        return self

    def rack_power_loss(
        self,
        rack: int,
        at: float,
        pids: Optional[Iterable[int]] = None,
    ) -> "PlanBuilder":
        self._events.append(
            RackPowerLoss(
                at=at,
                rack=rack,
                pids=None if pids is None else frozenset(pids),
            )
        )
        return self

    def pause(self, pid: int, at: float) -> "PlanBuilder":
        self._events.append(Pause(at=at, pid=pid))
        return self

    def resume(self, pid: int, at: float) -> "PlanBuilder":
        self._events.append(Resume(at=at, pid=pid))
        return self

    def build(self, num_hosts: Optional[int] = None) -> FaultPlan:
        return FaultPlan(self._events).validate(num_hosts=num_hosts)

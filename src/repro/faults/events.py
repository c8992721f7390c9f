"""Typed fault events.

A fault event is a small frozen dataclass with an absolute schedule time
``at`` (seconds, relative to when the injector is armed) plus the
parameters of one fault.  Events serialize to plain dicts (and therefore
JSON) losslessly, so a chaos scenario can live in a file next to the
benchmark configs.

The event vocabulary mirrors the failure model of paper §II and the
fault experiments of §IV-A4:

* :class:`Crash` / :class:`Recover` — fail-stop and restart of one
  process (the membership layer's reason to exist).
* :class:`CrashAfterAppend` — fail-stop of a KV replica between logging
  and applying its next command (the window a write-ahead log is for).
* :class:`Partition` / :class:`Heal` — switch-level network partition
  into connectivity groups, and its repair (ring split + merge).
* :class:`TokenDrop` — lose the next ``count`` token frames on the wire
  (the event Totem's token-loss timeout defends against).
* :class:`LossBurst` — a transient window of receiver-side data loss at
  ``rate`` on the targeted pids (a flapping lossy link).
* :class:`RackPowerLoss` — correlated fail-stop of every process in one
  rack (a PDU failure in a leaf–spine fabric).
* :class:`Pause` / :class:`Resume` — GC-stall-style freeze of one
  process: it stops executing but keeps receiving into kernel buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, FrozenSet, Iterable, Optional, Tuple, Type

from repro.util.errors import FaultError


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one scheduled fault."""

    at: float

    #: Stable wire name of the event type (set by each subclass).
    kind: ClassVar[str] = ""

    def validate(self) -> None:
        if self.at < 0:
            raise FaultError(f"{self.kind}: schedule time must be >= 0, got {self.at}")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; ``from_dict`` inverts it exactly."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for field in fields(self):
            payload[field.name] = _jsonify(getattr(self, field.name))
        return payload


def _jsonify(value: Any) -> Any:
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    return value


@dataclass(frozen=True)
class Crash(FaultEvent):
    """Fail-stop process ``pid``."""

    pid: int = 0
    kind: ClassVar[str] = "crash"


@dataclass(frozen=True)
class Recover(FaultEvent):
    """Restart a crashed process ``pid`` (fresh state, rejoins the ring)."""

    pid: int = 0
    kind: ClassVar[str] = "recover"


@dataclass(frozen=True)
class CrashAfterAppend(FaultEvent):
    """Fail-stop ``pid`` after it logs, before it applies, its next
    command (or next transaction); a crash for :class:`Recover`."""

    pid: int = 0
    only_transactions: bool = False
    kind: ClassVar[str] = "crash_after_append"


@dataclass(frozen=True)
class Partition(FaultEvent):
    """Split connectivity into the given groups (switch-level filter).

    Hosts not named in any group form an implicit group of their own.
    """

    groups: Tuple[FrozenSet[int], ...] = ()
    kind: ClassVar[str] = "partition"

    def __post_init__(self) -> None:
        normalized = tuple(
            frozenset(group) for group in self.groups
        )
        object.__setattr__(
            self, "groups", tuple(sorted(normalized, key=lambda g: min(g) if g else -1))
        )

    def validate(self) -> None:
        super().validate()
        if len(self.groups) < 2:
            raise FaultError(f"partition at {self.at}: need at least two groups")
        seen: set = set()
        for group in self.groups:
            if not group:
                raise FaultError(f"partition at {self.at}: empty group")
            overlap = seen & group
            if overlap:
                raise FaultError(
                    f"partition at {self.at}: pids {sorted(overlap)} appear in two groups"
                )
            seen |= group


@dataclass(frozen=True)
class Heal(FaultEvent):
    """Remove any active partition; the membership layer merges rings."""

    kind: ClassVar[str] = "heal"


@dataclass(frozen=True)
class TokenDrop(FaultEvent):
    """Drop the next ``count`` token frames crossing the switch."""

    count: int = 1
    kind: ClassVar[str] = "token_drop"

    def validate(self) -> None:
        super().validate()
        if self.count < 1:
            raise FaultError(f"token_drop at {self.at}: count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class LossBurst(FaultEvent):
    """Receiver-side data loss at ``rate`` for ``duration`` seconds.

    ``pids`` limits the burst to specific receivers; ``None`` hits every
    host (a switch-wide congestion episode).
    """

    rate: float = 0.0
    duration: float = 0.0
    pids: Optional[FrozenSet[int]] = None
    kind: ClassVar[str] = "loss_burst"

    def __post_init__(self) -> None:
        if self.pids is not None:
            object.__setattr__(self, "pids", frozenset(self.pids))

    def validate(self) -> None:
        super().validate()
        if not 0.0 < self.rate <= 1.0:
            raise FaultError(
                f"loss_burst at {self.at}: rate must be in (0, 1], got {self.rate}"
            )
        if self.duration <= 0:
            raise FaultError(
                f"loss_burst at {self.at}: duration must be > 0, got {self.duration}"
            )


@dataclass(frozen=True)
class RackPowerLoss(FaultEvent):
    """Simultaneous fail-stop of every member of one rack.

    The correlated failure of data centers: a rack PDU dies and every
    co-located process fails in the same instant.  ``pids`` names the
    rack's members explicitly (keeping the plan validator's crash
    bookkeeping exact); with ``pids=None`` the injector resolves the
    membership from the topology's rack map at apply time, which
    requires a fabric topology (see :mod:`repro.net.fabric`).
    """

    rack: int = 0
    pids: Optional[FrozenSet[int]] = None
    kind: ClassVar[str] = "rack_power_loss"

    def __post_init__(self) -> None:
        if self.pids is not None:
            object.__setattr__(self, "pids", frozenset(self.pids))

    def validate(self) -> None:
        super().validate()
        if self.rack < 0:
            raise FaultError(
                f"rack_power_loss at {self.at}: rack must be >= 0, got {self.rack}"
            )
        if self.pids is not None and not self.pids:
            raise FaultError(
                f"rack_power_loss at {self.at}: explicit pid set must be non-empty"
            )


@dataclass(frozen=True)
class Pause(FaultEvent):
    """Freeze process ``pid`` (GC stall): no execution, frames queue up."""

    pid: int = 0
    kind: ClassVar[str] = "pause"


@dataclass(frozen=True)
class Resume(FaultEvent):
    """Unfreeze a paused process; deferred timers fire late."""

    pid: int = 0
    kind: ClassVar[str] = "resume"


#: Registry used by :func:`event_from_dict` (and the plan JSON codec).
EVENT_TYPES: Dict[str, Type[FaultEvent]] = {
    cls.kind: cls
    for cls in (
        Crash,
        Recover,
        CrashAfterAppend,
        Partition,
        Heal,
        TokenDrop,
        LossBurst,
        RackPowerLoss,
        Pause,
        Resume,
    )
}


def event_from_dict(payload: Dict[str, Any]) -> FaultEvent:
    """Inverse of :meth:`FaultEvent.to_dict`."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise FaultError(f"unknown fault event kind {kind!r}")
    if cls is Partition and "groups" in data:
        data["groups"] = tuple(frozenset(group) for group in data["groups"])
    if cls in (LossBurst, RackPowerLoss) and data.get("pids") is not None:
        data["pids"] = frozenset(data["pids"])
    try:
        event = cls(**data)
    except TypeError as exc:
        raise FaultError(f"bad {kind} event fields: {exc}") from None
    return event


def events_from_dicts(payloads: Iterable[Dict[str, Any]]) -> Tuple[FaultEvent, ...]:
    return tuple(event_from_dict(payload) for payload in payloads)

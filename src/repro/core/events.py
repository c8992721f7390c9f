"""Effects emitted by the sans-io protocol engines.

Handling one input (a token or a data message) produces an ordered list of
effects.  Order is semantically meaningful: effects before a
:class:`SendToken` constitute the pre-token multicast phase, effects after
it the post-token phase, and the driver executes them sequentially on the
single-threaded CPU.

The ordering engines' effects are allocated on the benchmark hot path
(one per multicast / delivery / token send), so they are hand-written
``__slots__`` classes rather than dataclasses (Python 3.9 lacks
``dataclass(slots=True)``).  Equality and repr match the dataclasses
they replaced.  The membership controller's own effects (control sends,
timers, configuration deliveries) are off that path and stay dataclasses.

Every effect, from either engine, is executed by the one
:class:`~repro.core.executor.EffectExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.core.messages import DataMessage
from repro.core.token import RegularToken

if TYPE_CHECKING:
    from repro.evs.configuration import Configuration


class Effect:
    """Base class for protocol effects."""

    __slots__ = ()

    #: The in-order run of messages :class:`Deliver` hands to the
    #: application (its slot shadows this), and ``()`` for every other
    #: effect — so a wrapping layer can pick the deliveries out of an
    #: effect list without dispatching on effect types.
    messages: tuple = ()
    #: True for the effects that put a frame on the wire.  A layer
    #: wrapping an engine (the membership controller) forwards these
    #: untouched while it re-attributes or withholds the deliveries.
    on_wire = False


class MulticastData(Effect):
    """Multicast a data message to the ring (IP-multicast on the LAN)."""

    __slots__ = ("message", "retransmission")
    on_wire = True

    def __init__(self, message: DataMessage, retransmission: bool = False) -> None:
        self.message = message
        self.retransmission = retransmission

    def __repr__(self) -> str:
        return (
            f"MulticastData(message={self.message!r}, "
            f"retransmission={self.retransmission!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not MulticastData:
            return NotImplemented
        return (
            self.message == other.message
            and self.retransmission == other.retransmission
        )

    __hash__ = None


class SendToken(Effect):
    """Unicast the updated token to the next participant in the ring."""

    __slots__ = ("token", "destination")
    on_wire = True

    def __init__(self, token: RegularToken, destination: int) -> None:
        self.token = token
        self.destination = destination

    def __repr__(self) -> str:
        return f"SendToken(token={self.token!r}, destination={self.destination!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SendToken:
            return NotImplemented
        return self.token == other.token and self.destination == other.destination

    __hash__ = None


class Deliver(Effect):
    """Deliver an in-order run of messages to the local application.

    The only delivery effect.  The engines emit one per advance of the
    delivery frontier (``_deliver_ready``): ``messages`` is the run it
    released, a tuple in sequence order — a run of one is a 1-tuple —
    and the hosting layer performs one observer hook call, one checker
    append and one driver callback for the whole run.

    ``config_id`` / ``origin_ring`` are ``None`` as the ordering engine
    emits it.  A membership controller stamps the installed ring's id on
    the same object before forwarding it, so traces carry the
    configuration context the EVS checker needs; a run never spans a
    view change (the engine only releases what it ordered under one
    ring).
    """

    __slots__ = ("messages", "config_id", "origin_ring")

    def __init__(
        self,
        messages: tuple,
        config_id: Optional[int] = None,
        origin_ring: Optional[int] = None,
    ) -> None:
        self.messages = messages
        self.config_id = config_id
        self.origin_ring = origin_ring

    def __repr__(self) -> str:
        return (
            f"Deliver(messages={self.messages!r}, config_id={self.config_id!r}, "
            f"origin_ring={self.origin_ring!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Deliver:
            return NotImplemented
        return (
            self.messages == other.messages
            and self.config_id == other.config_id
            and self.origin_ring == other.origin_ring
        )

    __hash__ = None


class Stable(Effect):
    """Messages up to ``seq`` are stable everywhere and were discarded.

    Purely informational (garbage-collection notification); drivers may
    ignore it.
    """

    __slots__ = ("seq",)

    def __init__(self, seq: int) -> None:
        self.seq = seq

    def __repr__(self) -> str:
        return f"Stable(seq={self.seq!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Stable:
            return NotImplemented
        return self.seq == other.seq

    __hash__ = None


# ----------------------------------------------------------------------
# Effects emitted by the membership controller
# ----------------------------------------------------------------------


@dataclass
class SendControl(Effect):
    """Send a membership control message.

    ``destination`` of ``None`` means multicast to all attached hosts.
    Control messages travel on the token port class.
    """

    message: Any
    destination: Optional[int] = None
    on_wire = True


@dataclass
class SetTimer(Effect):
    """(Re)arm a named timer to fire ``delay`` seconds from now."""

    name: str
    delay: float


@dataclass
class CancelTimer(Effect):
    """Cancel a named timer if armed."""

    name: str


@dataclass
class DeliverConfiguration(Effect):
    """Deliver a configuration change (regular or transitional)."""

    configuration: "Configuration"

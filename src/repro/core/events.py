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
they replaced.  The membership controller's effects (control sends,
timers, attributed deliveries) are off that path and stay dataclasses.

Every effect, from either engine, is executed by the one
:class:`~repro.core.executor.EffectExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.core.messages import DataMessage
from repro.core.token import RegularToken

if TYPE_CHECKING:
    from repro.evs.configuration import Configuration


class Effect:
    """Base class for protocol effects."""

    __slots__ = ()

    #: The in-order run of messages a *delivery* effect hands to the
    #: application — scalar deliveries expose a 1-tuple, so consumers
    #: see one shape — and ``()`` for every other effect.
    delivered: tuple = ()
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
    """Deliver a message to the local application (in total order)."""

    __slots__ = ("message",)

    def __init__(self, message: DataMessage) -> None:
        self.message = message

    @property
    def delivered(self) -> tuple:
        return (self.message,)

    def __repr__(self) -> str:
        return f"Deliver(message={self.message!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Deliver:
            return NotImplemented
        return self.message == other.message

    __hash__ = None


class DeliverBatch(Effect):
    """Deliver a contiguous in-order run of messages in one step.

    Emitted by the engines when the delivery frontier advances by more
    than one message at once (``_deliver_ready`` found a run): the
    hosting layer performs *one* observer hook call, one checker append,
    and one driver callback for the whole slice instead of one of each
    per message.  ``messages`` is a tuple in delivery (sequence) order.
    Semantically equivalent to that many consecutive :class:`Deliver`
    effects; single-message runs still use :class:`Deliver`.
    """

    __slots__ = ("messages",)

    def __init__(self, messages: tuple) -> None:
        self.messages = messages

    @property
    def delivered(self) -> tuple:
        return self.messages

    def __repr__(self) -> str:
        return f"DeliverBatch(messages={self.messages!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DeliverBatch:
            return NotImplemented
        return self.messages == other.messages

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
class DeliverMessage(Effect):
    """Deliver an application message, attributed to a configuration.

    Replaces :class:`Deliver` when a membership controller wraps the
    ordering engine, so traces carry the configuration context the EVS
    checker needs.
    """

    message: DataMessage
    config_id: int
    origin_ring: int

    @property
    def delivered(self) -> tuple:
        return (self.message,)


@dataclass
class DeliverMessageBatch(Effect):
    """Deliver a contiguous in-order run of messages at once.

    The membership mirror of :class:`DeliverBatch`: one configuration
    attribution covers the whole slice (a batch never spans a view
    change — the engine only batches runs it delivered under one ring).
    """

    messages: Tuple[DataMessage, ...]
    config_id: int
    origin_ring: int

    @property
    def delivered(self) -> tuple:
        return self.messages


@dataclass
class DeliverConfiguration(Effect):
    """Deliver a configuration change (regular or transitional)."""

    configuration: "Configuration"

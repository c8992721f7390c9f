"""Protocol configuration: the flow-control windows and priority method.

Paper §III-A defines the two windows that shape the Accelerated Ring
protocol's behaviour:

* **Personal window** — the maximum number of new data messages one
  participant may send in a single token round.
* **Accelerated window** — the maximum number of those messages that may be
  sent *after* passing the token.  Zero degenerates to the original
  protocol's send-everything-then-token behaviour.

plus Totem's **Global window**, the cap on the total number of messages
(new + retransmissions) sent by everyone in one round, enforced through the
token's ``fcc`` field.

Paper §IV-A reports that personal windows of a few tens of messages with
accelerated windows of half to all of the personal window work well in all
tested environments; those are the defaults here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.util.errors import ConfigurationError


class TokenPriorityMethod(Enum):
    """When to raise the token's processing priority again (paper §III-D).

    ``AGGRESSIVE``
        Raise as soon as any data message from the immediate predecessor
        initiated in the *next* token round is processed.  Maximizes token
        rotation speed; used by the prototypes.
    ``POST_TOKEN``
        Raise only on processing a next-round message the predecessor sent
        *after* it had passed the token.  Slightly slower token, fewer
        unprocessed data messages build up; less sensitive to
        misconfiguration, so production Spread uses it.
    ``NEVER``
        Never prefer the token while data messages are available — the
        original Totem Ring discipline (all received data is processed
        before the token).
    """

    AGGRESSIVE = "aggressive"
    POST_TOKEN = "post_token"
    NEVER = "never"


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunable parameters of the ring ordering protocol."""

    personal_window: int = 30
    accelerated_window: int = 15
    global_window: int = 150
    priority_method: TokenPriorityMethod = TokenPriorityMethod.AGGRESSIVE
    #: How many new data messages a sender may coalesce into one UDP
    #: datagram (length-prefixed multi-message frame).  1 — the default,
    #: and the paper's prototype behaviour — sends every message in its
    #: own datagram; higher values amortize per-datagram send/receive
    #: overhead at the cost of a larger loss blast radius (losing the
    #: datagram loses every message in it).  Retransmissions are never
    #: coalesced: they must be individually addressable by ``rtr``.
    #: The count is the simulator's model parameter.  The real runtime
    #: fills datagrams by bytes (``runtime.transport.DATAGRAM_BUDGET``)
    #: and by default sets the count to the personal window
    #: (``runtime.node.RUNTIME_PROTOCOL``), where it can never bind; an
    #: explicit smaller count still does, and 1 turns coalescing off.
    messages_per_datagram: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "ProtocolConfig":
        """Reject nonsensical window combinations up front.

        Called from ``__post_init__`` and from both participant
        constructors, so a config that dodged construction-time checks
        (pickling, ``object.__setattr__``, hand-built subclasses) still
        fails loudly at the protocol boundary instead of deep inside
        flow control.  Returns ``self`` so call sites can chain.
        """
        for name in (
            "personal_window",
            "accelerated_window",
            "global_window",
            "messages_per_datagram",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        if self.personal_window < 1:
            raise ConfigurationError(
                f"personal_window must be >= 1, got {self.personal_window}"
            )
        if not 0 <= self.accelerated_window <= self.personal_window:
            raise ConfigurationError(
                "accelerated_window must be between 0 and personal_window "
                f"({self.personal_window}), got {self.accelerated_window}"
            )
        if self.global_window < self.personal_window:
            raise ConfigurationError(
                f"global_window ({self.global_window}) must be >= "
                f"personal_window ({self.personal_window})"
            )
        if self.messages_per_datagram < 1:
            raise ConfigurationError(
                "messages_per_datagram must be >= 1, "
                f"got {self.messages_per_datagram}"
            )
        if not isinstance(self.priority_method, TokenPriorityMethod):
            raise ConfigurationError(
                f"priority_method must be a TokenPriorityMethod, "
                f"got {self.priority_method!r}"
            )
        return self

    @property
    def accelerated(self) -> bool:
        """True when any post-token sending is allowed."""
        return self.accelerated_window > 0

    def original(self) -> "ProtocolConfig":
        """The original-Totem configuration with the same windows.

        Used by benchmarks so the baseline and the accelerated protocol are
        compared with identical flow-control envelopes, as in the paper.
        """
        return replace(
            self,
            accelerated_window=0,
            priority_method=TokenPriorityMethod.NEVER,
        )

"""Flow-control arithmetic (paper §III-B1).

``Num_to_send`` — the number of *new* messages a participant may multicast
in the current round — is the minimum of what it has queued, its Personal
window, and the headroom the Global window leaves after the traffic
reported by the token's ``fcc`` and this round's retransmissions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ProtocolConfig


@dataclass(frozen=True)
class FlowControlDecision:
    """The sending plan for one token round.

    ``queued`` and ``global_headroom`` capture the inputs that bounded
    the plan, so observers (:mod:`repro.obs`) can report the full fcc
    accounting picture — was the sender application-limited, personal-
    window-limited, or global-window-limited this round?
    """

    num_to_send: int
    pre_token: int
    post_token: int
    queued: int = 0
    global_headroom: int = 0

    def __post_init__(self) -> None:
        assert self.num_to_send == self.pre_token + self.post_token


def plan_sending(
    config: ProtocolConfig,
    queued: int,
    token_fcc: int,
    num_retransmissions: int,
) -> FlowControlDecision:
    """Decide how many new messages to send, and how to split them around
    the token release.

    The split rule (paper §III-B1/B3): at most ``accelerated_window``
    messages go after the token; if the participant has fewer than that to
    send, *all* of them go after the token ("If a participant ... only had
    two messages to send, it would send both after the token").
    """
    global_headroom = config.global_window - token_fcc - num_retransmissions
    num_to_send = min(queued, config.personal_window, max(0, global_headroom))
    num_to_send = max(0, num_to_send)
    post_token = min(num_to_send, config.accelerated_window)
    pre_token = num_to_send - post_token
    return FlowControlDecision(
        num_to_send=num_to_send,
        pre_token=pre_token,
        post_token=post_token,
        queued=queued,
        global_headroom=max(0, global_headroom),
    )


def update_fcc(
    token_fcc: int,
    sent_last_round: int,
    sending_this_round: int,
) -> int:
    """New ``fcc``: replace this participant's last-round contribution with
    its current-round contribution (both counts include retransmissions)."""
    # Runs on every token visit, idle ones included: comparisons, not max().
    carried = token_fcc - sent_last_round
    return carried + sending_this_round if carried > 0 else sending_this_round

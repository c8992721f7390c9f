"""Totem-style membership algorithm (paper §II / §III).

The Accelerated Ring protocol "directly uses the membership algorithm of
Spread, which is based on the Totem membership algorithm"; the ordering
protocol assumes membership has been established and handles only the
normal case.  This package supplies that substrate: failure detection via
token-loss timeout, a Gather phase that reaches consensus on the set of
connected participants via join messages, a Commit phase that circulates
a commit token collecting each member's old-ring state, and a Recovery
phase that exchanges messages from old rings so that Extended Virtual
Synchrony delivery guarantees hold across configuration changes
(crashes, partitions, and merges).

The recovery exchange uses direct flooding with per-old-ring status
gossip instead of Totem's token-driven recovery; DESIGN.md documents the
substitution (the delivered guarantees — and the EVS checker that
verifies them — are the same).
"""

from repro.membership.params import MembershipTimeouts
from repro.membership.messages import (
    JoinMessage,
    CommitToken,
    MemberInfo,
    RecoveredMessage,
    RecoveryStatus,
)
from repro.membership.ring_id import encode_ring_id, decode_ring_id
from repro.membership.controller import MembershipController, MemberState

__all__ = [
    "MembershipTimeouts",
    "JoinMessage",
    "CommitToken",
    "MemberInfo",
    "RecoveredMessage",
    "RecoveryStatus",
    "encode_ring_id",
    "decode_ring_id",
    "MembershipController",
    "MemberState",
]

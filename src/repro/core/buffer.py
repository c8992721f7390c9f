"""The participant's receive buffer, ordered by sequence number.

Tracks the *local aru* — the highest sequence number such that every
message at or below it has been received — plus the delivery frontier and
the stability frontier used for garbage collection.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.messages import DataMessage


class MessageBuffer:
    """Received (and self-originated) messages keyed by sequence number."""

    def __init__(self) -> None:
        self._messages: Dict[int, DataMessage] = {}
        self._local_aru = 0
        self._discarded_up_to = 0
        self._max_seq = 0
        self.duplicates = 0

    @property
    def local_aru(self) -> int:
        return self._local_aru

    @property
    def max_seq(self) -> int:
        """Highest sequence number ever observed (received or discarded)."""
        return self._max_seq

    @property
    def discarded_up_to(self) -> int:
        return self._discarded_up_to

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, seq: int) -> bool:
        return seq in self._messages or seq <= self._discarded_up_to

    def insert(self, message: DataMessage) -> bool:
        """Insert a received message; returns False for duplicates.

        Advances the local aru over any newly contiguous prefix.
        """
        # Hot path: one call per received (or self-originated) message;
        # attribute loads are hoisted into locals.
        seq = message.seq
        messages = self._messages
        if seq in messages or seq <= self._discarded_up_to:
            self.duplicates += 1
            return False
        messages[seq] = message
        if seq > self._max_seq:
            self._max_seq = seq
        aru = self._local_aru
        while aru + 1 in messages:
            aru += 1
        if aru != self._local_aru:
            self._local_aru = aru
        return True

    def get(self, seq: int) -> Optional[DataMessage]:
        return self._messages.get(seq)

    def missing_between(self, low: int, high: int) -> List[int]:
        """Sequence numbers in ``(low, high]`` that have not been received."""
        if high <= low:
            return []
        return [seq for seq in range(low + 1, high + 1) if seq not in self._messages]

    def discard_up_to(self, seq: int) -> int:
        """Drop stable, delivered messages; returns how many were dropped.

        Discarded messages can never be requested for retransmission again
        (every participant already has them), matching paper §III-B4.
        """
        dropped = 0
        for stale in range(self._discarded_up_to + 1, seq + 1):
            if self._messages.pop(stale, None) is not None:
                dropped += 1
        if seq > self._discarded_up_to:
            self._discarded_up_to = seq
        return dropped

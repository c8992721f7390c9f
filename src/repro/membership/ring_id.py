"""Ring identifiers.

A ring id must be unique across partitions that form rings concurrently,
so it combines a monotonically increasing sequence number with the
representative's pid (Totem uses the same pair).  The two are packed into
one integer so the ordering layer can treat ring ids opaquely.
"""

from __future__ import annotations

from typing import Tuple

_REP_SPACE = 1_000_003  # prime > any realistic pid


def encode_ring_id(ring_seq: int, representative: int) -> int:
    if representative >= _REP_SPACE or representative < 0:
        raise ValueError(f"representative pid out of range: {representative}")
    if ring_seq < 0:
        raise ValueError(f"ring_seq must be non-negative: {ring_seq}")
    return ring_seq * _REP_SPACE + representative


def decode_ring_id(ring_id: int) -> Tuple[int, int]:
    """Returns ``(ring_seq, representative)``."""
    return divmod(ring_id, _REP_SPACE)


_TRANSITIONAL_SHIFT = 64


def encode_transitional_id(old_ring_id: int, new_ring_id: int) -> int:
    """Unique id for the transitional configuration between two rings.

    EVS identifies every installed configuration uniquely; competing ring
    proposals emerging from the same old ring must yield *distinct*
    transitional configurations, so the id pairs the ring being closed
    with the ring being installed.
    """
    return (old_ring_id << _TRANSITIONAL_SHIFT) | new_ring_id

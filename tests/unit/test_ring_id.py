"""Unit tests for ring-id encoding."""

import pytest

from repro.membership.ring_id import (
    _TRANSITIONAL_SHIFT,
    decode_ring_id,
    encode_ring_id,
    encode_transitional_id,
)


def decode_transitional_id(transitional_id):
    """Returns ``(old_ring_id, new_ring_id)``."""
    return (
        transitional_id >> _TRANSITIONAL_SHIFT,
        transitional_id & ((1 << _TRANSITIONAL_SHIFT) - 1),
    )


def test_roundtrip():
    ring_id = encode_ring_id(42, 7)
    assert decode_ring_id(ring_id) == (42, 7)


def test_uniqueness_across_representatives():
    assert encode_ring_id(1, 0) != encode_ring_id(1, 1)


def test_uniqueness_across_sequences():
    assert encode_ring_id(1, 0) != encode_ring_id(2, 0)


def test_monotonic_in_sequence():
    assert encode_ring_id(2, 0) > encode_ring_id(1, 999)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        encode_ring_id(-1, 0)
    with pytest.raises(ValueError):
        encode_ring_id(0, 2_000_000)


def test_transitional_id_roundtrip():
    old = encode_ring_id(3, 1)
    new = encode_ring_id(4, 0)
    transitional = encode_transitional_id(old, new)
    assert decode_transitional_id(transitional) == (old, new)


def test_transitional_ids_distinguish_competing_proposals():
    old = encode_ring_id(3, 1)
    assert encode_transitional_id(old, encode_ring_id(4, 0)) != encode_transitional_id(
        old, encode_ring_id(4, 1)
    )

"""FrameRing: the preallocated zero-allocation frame queue.

The growth path rebases head/tail (the stale-tail bug class the inline
sites must also avoid), so wraparound-then-grow gets explicit coverage.
"""

import pytest

from repro.core.transport_core import FrameRing


def test_fifo_order_and_len():
    ring = FrameRing(capacity=4)
    assert len(ring) == 0
    assert not ring
    for item in ("a", "b", "c"):
        ring.push(item)
    assert len(ring) == 3
    assert ring
    assert ring.peek() == "a"
    assert [ring.pop(), ring.pop(), ring.pop()] == ["a", "b", "c"]
    assert len(ring) == 0


def test_pop_and_peek_empty_raise():
    ring = FrameRing(capacity=2)
    with pytest.raises(IndexError):
        ring.pop()
    with pytest.raises(IndexError):
        ring.peek()
    ring.push("x")
    ring.pop()
    with pytest.raises(IndexError):
        ring.pop()


def test_pop_frees_slot():
    ring = FrameRing(capacity=4)
    ring.push("frame")
    ring.pop()
    assert all(slot is None for slot in ring._slots)


def test_wraparound_steady_state():
    ring = FrameRing(capacity=4)
    # Push/pop far past the capacity so head/tail wrap the mask many
    # times; FIFO order must hold throughout and the ring never grows.
    initial_mask = ring._mask
    for value in range(1000):
        ring.push(value)
        assert ring.pop() == value
    assert ring._mask == initial_mask


def test_growth_preserves_order():
    ring = FrameRing(capacity=4)
    for value in range(4):
        ring.push(value)
    assert len(ring._slots) == 4
    ring.push(4)  # full -> grow
    assert len(ring._slots) == 8
    assert [ring.pop() for _ in range(5)] == [0, 1, 2, 3, 4]


def test_growth_after_wraparound():
    # Fill, drain halfway, refill past the seam so the live run straddles
    # the wrap point, then grow: the relink must preserve FIFO order.
    ring = FrameRing(capacity=4)
    for value in range(4):
        ring.push(value)
    assert ring.pop() == 0
    assert ring.pop() == 1
    ring.push(4)
    ring.push(5)  # tail wrapped; ring full again
    ring.push(6)  # grow with a straddling run
    assert [ring.pop() for _ in range(5)] == [2, 3, 4, 5, 6]
    # Rebased indices stay consistent for further use.
    ring.push(7)
    assert ring.pop() == 7


def test_growth_rebases_indices():
    ring = FrameRing(capacity=2)
    for value in range(2):
        ring.push(value)
    ring.pop()
    ring.push(2)
    ring.push(3)  # grow from a nonzero head
    assert ring._head == 0
    assert ring._tail == len(ring)
    assert [ring.pop() for _ in range(3)] == [1, 2, 3]


def test_repeated_growth():
    ring = FrameRing(capacity=2)
    for value in range(100):
        ring.push(value)
    assert len(ring) == 100
    assert [ring.pop() for _ in range(100)] == list(range(100))


def test_clear_resets():
    ring = FrameRing(capacity=4)
    for value in range(3):
        ring.push(value)
    ring.clear()
    assert len(ring) == 0
    assert all(slot is None for slot in ring._slots)
    ring.push("fresh")
    assert ring.pop() == "fresh"


def test_capacity_rounds_up_to_power_of_two():
    ring = FrameRing(capacity=5)
    assert len(ring._slots) == 8
    assert ring._mask == 7

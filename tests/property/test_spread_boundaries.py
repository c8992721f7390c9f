"""Boundary tests for the packing and fragmentation layers.

The generic round-trip properties live in test_spread_properties.py;
these pin the exact edges: payloads of MTU-1 / MTU / MTU+1 bytes, the
pack-budget fence, the maximum packing count, and the UDP datagram
fragmenter's frame-size arithmetic.
"""

from hypothesis import given, settings, strategies as st

from repro.net.fragment import Reassembler, fragment_datagram
from repro.net.packet import PortKind
from repro.spread.fragmentation import Fragmenter, FragmentReassembler
from repro.spread.packing import (
    _CONTAINER_OVERHEAD,
    _ITEM_OVERHEAD,
    Packer,
    unpack_payload,
)
from repro.spread.wire import AppData, Fragment, decode_envelope

MTU = 1300  # the spread pipeline's default chunk size
BUDGET = 1350  # the default pack budget


# -- spread fragmenter: chunk-size fence -------------------------------


def roundtrip(data, chunk_size):
    fragmenter = Fragmenter(chunk_size=chunk_size)
    reassembler = FragmentReassembler()
    pieces = fragmenter.fragment(data)
    if len(pieces) == 1 and pieces[0] == data:
        return pieces, data  # passed through unfragmented
    result = None
    for piece in pieces:
        fragment = decode_envelope(piece)
        assert isinstance(fragment, Fragment)
        result = reassembler.accept(0, fragment)
    assert reassembler.messages_reassembled == 1
    return pieces, result


def test_fragmenter_mtu_fence():
    # MTU-1 and MTU pass through untouched; MTU+1 splits in two with a
    # one-byte tail.
    for size, expected_pieces in ((MTU - 1, 1), (MTU, 1), (MTU + 1, 2)):
        data = bytes(size)
        pieces, rebuilt = roundtrip(data, MTU)
        assert len(pieces) == expected_pieces
        assert rebuilt == data
    pieces = Fragmenter(chunk_size=MTU).fragment(bytes(MTU + 1))
    tail = decode_envelope(pieces[-1])
    assert len(tail.chunk) == 1


def test_fragmenter_exact_multiple_has_no_empty_tail():
    fragmenter = Fragmenter(chunk_size=MTU)
    pieces = fragmenter.fragment(bytes(2 * MTU))
    assert len(pieces) == 2
    assert all(len(decode_envelope(p).chunk) == MTU for p in pieces)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-2, max_value=2), st.integers(min_value=1, max_value=4))
def test_fragmenter_boundary_sizes_roundtrip(delta, multiple):
    size = max(0, multiple * MTU + delta)
    data = bytes(range(256)) * (size // 256) + bytes(size % 256)
    _, rebuilt = roundtrip(data, MTU)
    assert rebuilt == data


def test_interleaved_senders_reassemble_independently():
    fragmenter = Fragmenter(chunk_size=MTU)
    reassembler = FragmentReassembler()
    left = fragmenter.fragment(b"L" * (MTU + 1))
    right = fragmenter.fragment(b"R" * (MTU + 1))
    # Same frag ids would collide without the origin key; interleave
    # fragments from two origins that reuse the id space.
    assert reassembler.accept(0, decode_envelope(left[0])) is None
    assert reassembler.accept(1, decode_envelope(left[0])) is None
    assert reassembler.accept(0, decode_envelope(left[1])) == b"L" * (MTU + 1)
    assert reassembler.accept(1, decode_envelope(left[1])) == b"L" * (MTU + 1)
    assert reassembler.accept(0, decode_envelope(right[0])) is None
    assert reassembler.accept(0, decode_envelope(right[1])) == b"R" * (MTU + 1)


# -- packer: budget fence and max packing count ------------------------


def packed_sizes():
    """Envelope sizes that straddle the single-envelope budget fence."""
    fence = BUDGET - _CONTAINER_OVERHEAD - _ITEM_OVERHEAD
    return (fence - 1, fence, fence + 1)


def test_packer_budget_fence_for_single_envelopes():
    small, exact, oversize = packed_sizes()
    # At or under the fence the envelope waits to be packed ...
    for size in (small, exact):
        packer = Packer(budget=BUDGET)
        assert packer.add(bytes(size)) == []
        assert packer.flush() == [bytes(size)]
    # ... one byte over, it bypasses packing entirely (the
    # fragmentation layer owns splitting it).
    packer = Packer(budget=BUDGET)
    emitted = packer.add(bytes(oversize))
    assert emitted == [bytes(oversize)]
    assert packer.flush() == []


def test_packer_two_envelope_budget_fence():
    # Two envelopes that together exactly fill the budget share a packet;
    # one byte more and the second rolls to the next packet.
    exact_pair = (BUDGET - _CONTAINER_OVERHEAD) // 2 - _ITEM_OVERHEAD
    packer = Packer(budget=BUDGET)
    assert packer.add(bytes(exact_pair)) == []
    assert packer.add(bytes(exact_pair)) == []
    (packet,) = packer.flush()
    assert len(packet) <= BUDGET
    assert unpack_payload(packet) == [bytes(exact_pair), bytes(exact_pair)]

    packer = Packer(budget=BUDGET)
    assert packer.add(bytes(exact_pair + 1)) == []
    emitted = packer.add(bytes(exact_pair + 1))
    assert emitted == [bytes(exact_pair + 1)]  # first flushed alone
    assert packer.flush() == [bytes(exact_pair + 1)]


def test_packer_max_packing_count():
    # Zero-length envelopes cost only the item overhead, giving the
    # highest possible packing count for a budget.
    max_items = (BUDGET - _CONTAINER_OVERHEAD) // _ITEM_OVERHEAD
    packer = Packer(budget=BUDGET)
    emitted = []
    for _ in range(max_items + 1):
        emitted.extend(packer.add(b""))
    emitted.extend(packer.flush())
    assert len(emitted) == 2  # one full container + the overflow item
    first = unpack_payload(emitted[0])
    assert len(first) == max_items
    assert all(item == b"" for item in first)
    assert len(emitted[0]) <= BUDGET
    assert packer.envelopes_packed == max_items + 1


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=BUDGET + 8), min_size=1, max_size=12
    )
)
def test_packer_never_overflows_budget_on_multi_item_packets(sizes):
    # unpack_payload decodes single-envelope packets, so the inputs must
    # be valid envelopes, not raw padding.
    packer = Packer(budget=BUDGET)
    envelopes = [AppData("s", ("g",), bytes(size)).encode() for size in sizes]
    packets = []
    for envelope in envelopes:
        packets.extend(packer.add(envelope))
    packets.extend(packer.flush())
    assert [
        item for packet in packets for item in unpack_payload(packet)
    ] == envelopes
    for packet in packets:
        if len(unpack_payload(packet)) > 1:
            assert len(packet) <= BUDGET


# -- UDP datagram fragmentation (net layer) ----------------------------

UDP_MTU = 1500


def test_datagram_mtu_fence():
    for size, expected in ((UDP_MTU - 1, 1), (UDP_MTU, 1), (UDP_MTU + 1, 2)):
        frames = fragment_datagram(0, None, PortKind.DATA, size, "p", UDP_MTU)
        assert len(frames) == expected
        assert sum(frame.size for frame in frames) == size
    over = fragment_datagram(0, None, PortKind.DATA, UDP_MTU + 1, "p", UDP_MTU)
    assert [frame.size for frame in over] == [UDP_MTU, 1]
    assert over[0].fragment[2] == 2  # total


def test_datagram_reassembly_requires_every_fragment():
    frames = fragment_datagram(0, None, PortKind.DATA, 3 * UDP_MTU, "payload",
                               UDP_MTU)
    assert len(frames) == 3
    reassembler = Reassembler()
    # Out of order, with a duplicate; completes only on the last one.
    assert reassembler.accept(frames[2]) is None
    assert reassembler.accept(frames[0]) is None
    assert reassembler.accept(frames[0]) is None  # duplicate is harmless
    assert reassembler.accept(frames[1]) == "payload"
    assert reassembler.datagrams_completed == 1
    # A datagram missing one fragment never completes.
    incomplete = fragment_datagram(1, None, PortKind.DATA, 2 * UDP_MTU, "x",
                                   UDP_MTU)
    assert reassembler.accept(incomplete[0]) is None
    assert reassembler.datagrams_completed == 1

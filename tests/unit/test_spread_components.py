"""Unit tests for the Spread toolkit components: wire, groups, packing,
fragmentation."""

import pytest

from repro.spread.fragmentation import Fragmenter, FragmentReassembler
from repro.spread.groups import GroupDirectory, daemon_of, qualify
from repro.spread.packing import Packer, unpack_payload
from repro.spread.wire import (
    AppData,
    Fragment,
    GroupJoin,
    GroupLeave,
    Packed,
    decode_envelope,
)
from repro.util.errors import CodecError, ConfigurationError, ProtocolError


class TestWire:
    def test_app_data_roundtrip(self):
        envelope = AppData(sender="alice#0", groups=("chat", "audit"), payload=b"hi")
        assert decode_envelope(envelope.encode()) == envelope

    def test_app_data_empty_groups(self):
        envelope = AppData(sender="a#0", groups=(), payload=b"x")
        assert decode_envelope(envelope.encode()) == envelope

    def test_join_leave_roundtrip(self):
        join = GroupJoin(member="bob#1", group="chat")
        leave = GroupLeave(member="bob#1", group="chat")
        assert decode_envelope(join.encode()) == join
        assert decode_envelope(leave.encode()) == leave

    def test_packed_roundtrip(self):
        inner = [AppData("a#0", ("g",), b"1").encode(),
                 GroupJoin("b#1", "g").encode()]
        packed = Packed(tuple(inner))
        assert decode_envelope(packed.encode()) == packed

    def test_fragment_roundtrip(self):
        fragment = Fragment(frag_id=7, index=2, total=5, chunk=b"chunk")
        assert decode_envelope(fragment.encode()) == fragment

    def test_unicode_names(self):
        envelope = AppData(sender="ålice#0", groups=("gruppé",), payload=b"")
        assert decode_envelope(envelope.encode()) == envelope

    def test_empty_envelope_rejected(self):
        with pytest.raises(CodecError):
            decode_envelope(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            decode_envelope(b"\xff")


class TestGroupDirectory:
    def test_join_and_members_ordered(self):
        directory = GroupDirectory()
        directory.apply_join("a#0", "g")
        directory.apply_join("b#1", "g")
        assert directory.members("g") == ("a#0", "b#1")

    def test_duplicate_join_ignored(self):
        directory = GroupDirectory()
        assert directory.apply_join("a#0", "g")
        assert not directory.apply_join("a#0", "g")

    def test_leave_removes(self):
        directory = GroupDirectory()
        directory.apply_join("a#0", "g")
        assert directory.apply_leave("a#0", "g")
        assert directory.members("g") == ()

    def test_leave_unknown_is_noop(self):
        directory = GroupDirectory()
        assert not directory.apply_leave("a#0", "g")

    def test_configuration_prunes_dead_daemons(self):
        directory = GroupDirectory()
        directory.apply_join("a#0", "g")
        directory.apply_join("b#3", "g")
        affected = directory.apply_configuration({0, 1})
        assert affected == ["g"]
        assert directory.members("g") == ("a#0",)

    def test_dirty_tracking(self):
        directory = GroupDirectory()
        directory.apply_join("a#0", "g")
        assert directory.take_dirty() == {"g"}
        assert directory.take_dirty() == set()

    def test_qualify_and_daemon_of(self):
        assert qualify("alice", 3) == "alice#3"
        assert daemon_of("alice#3") == 3
        with pytest.raises(ProtocolError):
            qualify("a#b", 0)
        with pytest.raises(ProtocolError):
            daemon_of("nodelimiter")

    def test_snapshot_is_copy(self):
        directory = GroupDirectory()
        directory.apply_join("a#0", "g")
        snap = directory.members("g")
        directory.apply_join("b#0", "g")
        assert snap == ("a#0",)
        assert directory.members("g") == ("a#0", "b#0")


class TestPacker:
    def test_small_messages_pack_together(self):
        packer = Packer(budget=200)
        first = AppData("a#0", ("g",), b"x" * 40).encode()
        second = AppData("a#0", ("g",), b"y" * 40).encode()
        assert packer.add(first) == []
        assert packer.add(second) == []
        flushed = packer.flush()
        assert len(flushed) == 1
        items = unpack_payload(flushed[0])
        assert items == [first, second]

    def test_overflow_emits_previous_batch(self):
        packer = Packer(budget=150)
        first = AppData("a#0", ("g",), b"x" * 60).encode()
        second = AppData("a#0", ("g",), b"y" * 60).encode()
        packer.add(first)
        emitted = packer.add(second)
        assert len(emitted) == 1  # first batch closed
        assert unpack_payload(emitted[0]) == [first]

    def test_single_item_flush_not_wrapped(self):
        packer = Packer(budget=500)
        only = AppData("a#0", ("g",), b"solo").encode()
        packer.add(only)
        flushed = packer.flush()
        assert flushed == [only]

    def test_oversized_item_passes_through(self):
        packer = Packer(budget=100)
        big = AppData("a#0", ("g",), b"z" * 500).encode()
        emitted = packer.add(big)
        assert emitted == [big]

    def test_order_preserved_across_batches(self):
        packer = Packer(budget=120)
        envelopes = [AppData("a#0", ("g",), bytes([i]) * 50).encode() for i in range(5)]
        out = []
        for envelope in envelopes:
            out.extend(packer.add(envelope))
        out.extend(packer.flush())
        unpacked = [item for payload in out for item in unpack_payload(payload)]
        assert unpacked == envelopes

    def test_unpack_passes_every_non_container_envelope_through_unchanged(self):
        # unpack_payload peeks the tag: only a packed container is decoded.
        single = AppData("a#0", ("g", "h"), b"p" * 1024).encode()
        join = GroupJoin("a#0", "g").encode()
        fragment = Fragment(frag_id=7, index=1, total=3, chunk=b"c" * 900).encode()
        for envelope in (single, join, fragment):
            (only,) = unpack_payload(envelope)
            assert only is envelope  # not even copied
            assert decode_envelope(only).encode() == envelope
        packed = Packed((single, join, fragment)).encode()
        assert unpack_payload(packed) == [single, join, fragment]
        assert unpack_payload(b"") == [b""]  # the decoder rejects it, as before
        with pytest.raises(CodecError):
            decode_envelope(b"")

    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            Packer(budget=10)

    def test_flush_empty_returns_nothing(self):
        assert Packer().flush() == []


class TestFragmentation:
    def test_small_not_fragmented(self):
        fragmenter = Fragmenter(chunk_size=100)
        data = b"a" * 50
        assert fragmenter.fragment(data) == [data]

    def test_fragment_and_reassemble(self):
        fragmenter = Fragmenter(chunk_size=100)
        reassembler = FragmentReassembler()
        data = bytes(range(256)) * 2  # 512 bytes -> 6 fragments
        pieces = fragmenter.fragment(data)
        assert len(pieces) == 6
        result = None
        for piece in pieces:
            fragment = decode_envelope(piece)
            result = reassembler.accept(0, fragment)
        assert result == data

    def test_interleaved_senders(self):
        fragmenter = Fragmenter(chunk_size=100)
        reassembler = FragmentReassembler()
        data_a, data_b = b"A" * 250, b"B" * 250
        pieces_a = [decode_envelope(p) for p in fragmenter.fragment(data_a)]
        pieces_b = [decode_envelope(p) for p in fragmenter.fragment(data_b)]
        assert reassembler.accept(0, pieces_a[0]) is None
        assert reassembler.accept(1, pieces_b[0]) is None
        assert reassembler.accept(1, pieces_b[1]) is None
        assert reassembler.accept(0, pieces_a[1]) is None
        assert reassembler.accept(1, pieces_b[2]) == data_b
        assert reassembler.accept(0, pieces_a[2]) == data_a
        assert reassembler.messages_reassembled == 2

    def test_out_of_range_index_rejected(self):
        reassembler = FragmentReassembler()
        with pytest.raises(CodecError):
            reassembler.accept(0, Fragment(frag_id=1, index=5, total=3, chunk=b""))

    def test_total_mismatch_rejected(self):
        reassembler = FragmentReassembler()
        reassembler.accept(0, Fragment(frag_id=1, index=0, total=3, chunk=b"x"))
        with pytest.raises(CodecError):
            reassembler.accept(0, Fragment(frag_id=1, index=0, total=4, chunk=b"x"))

    def test_chunk_size_validation(self):
        with pytest.raises(ConfigurationError):
            Fragmenter(chunk_size=1)

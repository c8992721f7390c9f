"""Unit tests for the shared sans-io transport core.

These cover the pieces the sim driver and the real runtime share: the
coalescing accumulator, batch wire arithmetic, the data-port decoder,
and byte-window accounting.
"""

import pytest

from repro.core.codec import (
    BATCH_FRAME_OVERHEAD,
    BATCH_ITEM_OVERHEAD,
    encode_data,
    encode_data_batch,
    encode_token,
)
from repro.core.messages import DataMessage, DeliveryService
from repro.core.token import RegularToken
from repro.core.transport_core import (
    ByteWindow,
    CoalescingAccumulator,
    batch_wire_size,
    decode_data_port,
    encode_run,
)
from repro.util.errors import CodecError


def _msg(seq, payload=b"p", payload_size=None):
    return DataMessage(
        seq=seq,
        pid=0,
        round=1,
        service=DeliveryService.AGREED,
        payload=payload,
        payload_size=payload_size if payload_size is not None else len(payload),
    )


class TestCoalescingAccumulator:
    def test_fills_to_mpd_then_emits(self):
        acc = CoalescingAccumulator(3)
        assert acc.push(_msg(1)) is None
        assert acc.push(_msg(2)) is None
        full = acc.push(_msg(3))
        assert [m.seq for m in full] == [1, 2, 3]
        assert acc.group is None

    def test_take_returns_partial_and_clears(self):
        acc = CoalescingAccumulator(4)
        acc.push(_msg(1))
        acc.push(_msg(2))
        partial = acc.take()
        assert [m.seq for m in partial] == [1, 2]
        assert acc.take() is None
        assert acc.group is None

    def test_take_on_empty_is_none(self):
        assert CoalescingAccumulator(2).take() is None


class TestEncodeRun:
    def test_run_of_one_degrades_to_plain_data(self):
        message = _msg(5)
        assert encode_run([message]) == encode_data(message)

    def test_longer_runs_use_batch_encoding(self):
        messages = [_msg(1), _msg(2)]
        assert encode_run(messages) == encode_data_batch(messages)


class TestBatchWireSize:
    def test_arithmetic_matches_the_wire_model(self):
        messages = [_msg(1, b"abc"), _msg(2, b"defgh")]
        expected = (
            BATCH_FRAME_OVERHEAD
            + 2 * BATCH_ITEM_OVERHEAD
            + sum(m.payload_size for m in messages)
        )
        assert batch_wire_size(messages, header_bytes=0) == expected
        # header_bytes models the sim's per-message protocol header:
        # it is charged once per message in the run.
        assert batch_wire_size(messages, 10) == expected + 20

    def test_uses_virtual_payload_size_not_len(self):
        # The sim carries payload_size (virtual bytes) distinct from the
        # actual payload; the wire model must account the virtual size.
        small = [_msg(1, b"x", payload_size=1)]
        inflated = [_msg(1, b"x", payload_size=1000)]
        assert (
            batch_wire_size(inflated, 0) - batch_wire_size(small, 0) == 999
        )


class TestDecodeDataPort:
    def test_roundtrips_single_data(self):
        message = _msg(7, b"payload")
        decoded = decode_data_port(encode_data(message))
        assert decoded.seq == 7
        assert decoded.payload == b"payload"

    def test_roundtrips_batch(self):
        messages = [_msg(1), _msg(2), _msg(3)]
        decoded = decode_data_port(encode_data_batch(messages))
        assert type(decoded) is list
        assert [m.seq for m in decoded] == [1, 2, 3]

    def test_rejects_token_on_data_port(self):
        token = encode_token(RegularToken(ring_id=1))
        with pytest.raises(CodecError):
            decode_data_port(token)

    def test_rejects_short_and_garbage(self):
        with pytest.raises(CodecError):
            decode_data_port(b"")
        with pytest.raises(CodecError):
            decode_data_port(b"\x00")
        with pytest.raises(CodecError):
            decode_data_port(b"zz-not-magic")


class TestByteWindow:
    def test_reserve_until_capacity(self):
        window = ByteWindow(100)
        assert window.try_reserve(60)
        assert window.try_reserve(40)
        assert not window.try_reserve(1)
        assert window.queued_bytes == 100
        assert window.frames_received == 2
        assert window.frames_dropped == 1

    def test_release_frees_capacity(self):
        window = ByteWindow(100)
        window.try_reserve(80)
        window.release(80)
        assert window.queued_bytes == 0
        assert window.try_reserve(100)

    def test_peak_tracks_high_water_mark(self):
        window = ByteWindow(100)
        window.try_reserve(70)
        window.release(70)
        window.try_reserve(30)
        assert window.peak_queue_bytes == 70

    def test_reset_clears_accounting(self):
        window = ByteWindow(50)
        window.try_reserve(50)
        window.reset()
        assert window.queued_bytes == 0
        assert window.try_reserve(50)

"""Safety net for the one-unpack batch decoder (``decode_data_batch``).

The decoder reads an item's length prefix and data header with one
``Struct`` and builds each ``DataMessage`` positionally.  The decoder it
replaced is kept below, verbatim, as the reference: on every valid frame
the two return equal messages, and on every cut or corrupted frame the
new one raises ``CodecError`` — never ``struct.error`` or ``IndexError``
— exactly where the reference rejects, and agrees with it where a
corrupted field happens to leave the frame valid.
"""

import struct
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import (
    _BATCH_HEADER,
    _DATA_HEADER,
    _ITEM_PREFIX,
    MAGIC,
    TYPE_DATA,
    TYPE_DATA_BATCH,
    decode_data_batch,
    encode_data_batch,
)
from repro.core.messages import SERVICE_FROM_WIRE, DataMessage, DeliveryService
from repro.util.errors import CodecError


def reference_decode_data_batch(data: bytes) -> List[DataMessage]:
    """The decoder as it was before the one-unpack rewrite."""
    if len(data) < _BATCH_HEADER.size:
        raise CodecError(f"datagram too short: {len(data)} bytes")
    magic, msg_type, count = _BATCH_HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CodecError(f"bad magic byte {magic:#x}")
    if msg_type != TYPE_DATA_BATCH:
        raise CodecError(f"not a data batch: type {msg_type}")
    view = memoryview(data)
    end = len(data)
    header_size = _DATA_HEADER.size
    prefix_size = _ITEM_PREFIX.size
    unpack_prefix = _ITEM_PREFIX.unpack_from
    unpack_header = _DATA_HEADER.unpack_from
    offset = _BATCH_HEADER.size
    messages: List[DataMessage] = []
    append = messages.append
    for _ in range(count):
        if offset + prefix_size > end:
            raise CodecError("truncated batch item prefix")
        (item_size,) = unpack_prefix(view, offset)
        offset += prefix_size
        if item_size < header_size or offset + item_size > end:
            raise CodecError(
                f"truncated batch item: need {item_size}, have {end - offset}"
            )
        (
            item_magic,
            item_type,
            service,
            post_token,
            seq,
            pid,
            round_,
            ring_id,
            timestamp,
            payload_len,
        ) = unpack_header(view, offset)
        if item_magic != MAGIC or item_type != TYPE_DATA:
            raise CodecError(f"bad batch item header at offset {offset}")
        if header_size + payload_len != item_size:
            raise CodecError(
                f"batch item length mismatch: prefix {item_size}, "
                f"header {header_size + payload_len}"
            )
        payload_start = offset + header_size
        append(
            DataMessage(
                seq=seq,
                pid=pid,
                round=round_,
                service=SERVICE_FROM_WIRE[service],
                payload=bytes(view[payload_start : payload_start + payload_len]),
                post_token=bool(post_token),
                timestamp=None if timestamp < 0 else timestamp,
                ring_id=ring_id,
            )
        )
        offset += item_size
    if offset != end:
        raise CodecError(f"{end - offset} trailing bytes after batch")
    return messages


data_messages = st.builds(
    DataMessage,
    seq=st.integers(min_value=0, max_value=2**64 - 1),
    pid=st.integers(min_value=0, max_value=2**32 - 1),
    round=st.integers(min_value=0, max_value=2**64 - 1),
    service=st.sampled_from(list(DeliveryService)),
    payload=st.binary(max_size=200),
    post_token=st.booleans(),
    timestamp=st.one_of(st.none(), st.floats(min_value=0, max_value=1e9)),
    ring_id=st.integers(min_value=0, max_value=2**64 - 1),
)
runs = st.lists(data_messages, min_size=1, max_size=10)


def outcome(decoder, data):
    """What ``decoder`` makes of ``data``: its messages, or CodecError."""
    try:
        return decoder(data)
    except CodecError:
        return CodecError


def assert_same(got, reference):
    assert got == reference
    if reference is not CodecError:
        for message, expected in zip(got, reference):
            assert type(message.payload) is bytes
            assert message.post_token is expected.post_token
            assert message.payload_size == len(message.payload)


@settings(max_examples=200, deadline=None)
@given(runs)
def test_valid_runs_decode_to_the_reference_messages(run):
    frame = encode_data_batch(run)
    decoded = decode_data_batch(frame)
    assert_same(decoded, reference_decode_data_batch(frame))
    assert decoded == run


@settings(max_examples=60, deadline=None)
@given(runs)
def test_every_truncation_is_a_codec_error(run):
    frame = encode_data_batch(run)
    for cut in range(len(frame)):
        with pytest.raises(CodecError):
            decode_data_batch(frame[:cut])
        assert outcome(reference_decode_data_batch, frame[:cut]) is CodecError


def field_offsets(frame: bytes):
    """``(name, offset, struct format)`` of every field a corruption may
    hit: the batch magic, type and count, and per item its length prefix,
    magic, type, service byte and payload length."""
    fields = [("magic", 0, "B"), ("type", 1, "B"), ("count", 2, "!H")]
    offset = _BATCH_HEADER.size
    while offset < len(frame):
        (item_size,) = _ITEM_PREFIX.unpack_from(frame, offset)
        header = offset + _ITEM_PREFIX.size
        fields += [
            ("prefix", offset, "!I"),
            ("item magic", header, "B"),
            ("item type", header + 1, "B"),
            ("service", header + 2, "B"),
            ("payload length", header + _DATA_HEADER.size - 4, "!I"),
        ]
        offset = header + item_size
    return fields


#: Replacement values: near the true one (off by a little) or anywhere.
nudges = st.one_of(st.integers(-3, 3), st.integers(0, 2**32 - 1).map(lambda v: ("set", v)))


@settings(max_examples=400, deadline=None)
@given(runs, st.integers(min_value=0), nudges)
def test_a_corrupted_field_is_a_codec_error_where_the_reference_rejects(run, pick, nudge):
    frame = encode_data_batch(run)
    fields = field_offsets(frame)
    _name, offset, layout = fields[pick % len(fields)]
    (value,) = struct.unpack_from(layout, frame, offset)
    bits = 8 * struct.calcsize(layout)
    value = nudge[1] if isinstance(nudge, tuple) else value + nudge
    corrupted = bytearray(frame)
    struct.pack_into(layout, corrupted, offset, value % (1 << bits))
    corrupted = bytes(corrupted)
    assert_same(
        outcome(decode_data_batch, corrupted),
        outcome(reference_decode_data_batch, corrupted),
    )


def test_the_pinned_checks_are_codec_errors():
    """One frame per check the decoder makes, each named."""
    run = [
        DataMessage(seq=1, pid=2, round=3, service=DeliveryService.SAFE, payload=b"abc"),
        DataMessage(seq=2, pid=2, round=3, service=DeliveryService.AGREED, payload=b""),
    ]
    frame = encode_data_batch(run)
    first_header = _BATCH_HEADER.size + _ITEM_PREFIX.size

    def patched(offset, layout, value):
        out = bytearray(frame)
        struct.pack_into(layout, out, offset, value)
        return bytes(out)

    broken = {
        "empty": b"",
        "short header": frame[:3],
        "magic": patched(0, "B", 0),
        "type": patched(1, "B", TYPE_DATA),
        "count past the end": patched(2, "!H", 3),
        "count short of the end": patched(2, "!H", 1),
        "prefix too small": patched(_BATCH_HEADER.size, "!I", 3),
        "prefix too large": patched(_BATCH_HEADER.size, "!I", 10_000),
        "item magic": patched(first_header, "B", 0),
        "item type": patched(first_header + 1, "B", 2),
        "service": patched(first_header + 2, "B", 9),
        "payload length": patched(first_header + _DATA_HEADER.size - 4, "!I", 2**32 - 1),
        "trailing bytes": frame + b"\x00",
    }
    for name, data in broken.items():
        with pytest.raises(CodecError):
            decode_data_batch(data)
        assert outcome(reference_decode_data_batch, data) is CodecError, name

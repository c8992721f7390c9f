"""Binary wire codecs for the real (asyncio/UDP) runtime.

The simulator never serializes messages; the runtime does.  The format is
a compact network-byte-order encoding with a one-byte type tag.  The
``timestamp`` field on data messages exists purely so benchmark clients
can measure end-to-end latency across processes, mirroring the paper's
instrumented clients.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Union

from repro.core.messages import SERVICE_FROM_WIRE, DataMessage
from repro.core.token import RegularToken
from repro.util.errors import CodecError

MAGIC = 0xA5
TYPE_DATA = 1
TYPE_TOKEN = 2
TYPE_DATA_BATCH = 3

# magic, type, service, post_token, seq, pid, round, ring_id, timestamp, payload_len
_DATA_HEADER = struct.Struct("!BBBBQIQQdI")
# magic, type, ring_id, token_id, seq, aru, aru_lowered_by, fcc, rotation, rtr_count
_TOKEN_HEADER = struct.Struct("!BBQQQQqIQI")
# magic, type, count — the multi-message frame header; each item follows
# as a 4-byte length prefix + one complete TYPE_DATA encoding.
_BATCH_HEADER = struct.Struct("!BBH")
_ITEM_PREFIX = struct.Struct("!I")
# One batch item's length prefix and data header, read in one unpack.
_ITEM_HEAD = struct.Struct("!IBBBBQIQQdI")

#: Per-item wire overhead of a coalesced frame (the length prefix), and
#: the fixed per-frame overhead (the batch header).  Exposed so the
#: simulator's cost model can price coalesced datagrams with the real
#: wire arithmetic.
BATCH_ITEM_OVERHEAD = _ITEM_PREFIX.size
BATCH_FRAME_OVERHEAD = _BATCH_HEADER.size
#: Header bytes ``encode_data`` puts before the payload: what the
#: runtime sizes its datagrams with.
DATA_HEADER_BYTES = _DATA_HEADER.size

WireMessage = Union[DataMessage, RegularToken]


def encode_data(message: DataMessage) -> bytes:
    # One exactly-sized buffer, header packed in place and the payload
    # copied once — no intermediate header bytes + concatenation copy.
    payload = message.payload
    header_size = _DATA_HEADER.size
    out = bytearray(header_size + len(payload))
    _DATA_HEADER.pack_into(
        out,
        0,
        MAGIC,
        TYPE_DATA,
        int(message.service),
        1 if message.post_token else 0,
        message.seq,
        message.pid,
        message.round,
        message.ring_id,
        message.timestamp if message.timestamp is not None else -1.0,
        len(payload),
    )
    out[header_size:] = payload
    return bytes(out)


def encode_token(token: RegularToken) -> bytes:
    # Same single-buffer scheme as encode_data: header and rtr list are
    # packed into one exactly-sized buffer with no intermediate copies.
    rtr = token.rtr
    header_size = _TOKEN_HEADER.size
    out = bytearray(header_size + 8 * len(rtr))
    _TOKEN_HEADER.pack_into(
        out,
        0,
        MAGIC,
        TYPE_TOKEN,
        token.ring_id,
        token.token_id,
        token.seq,
        token.aru,
        token.aru_lowered_by if token.aru_lowered_by is not None else -1,
        token.fcc,
        token.rotation,
        len(rtr),
    )
    if rtr:
        struct.pack_into(f"!{len(rtr)}Q", out, header_size, *rtr)
    return bytes(out)


def encode_data_batch(messages: Sequence[DataMessage]) -> bytes:
    """Coalesce several data messages into one length-prefixed frame.

    The whole frame is packed into one exactly-sized buffer: batch
    header, then per message a 4-byte length prefix and the same bytes
    ``encode_data`` would produce — no per-message intermediate buffers
    and no join at the end.
    """
    if not messages:
        raise CodecError("cannot encode an empty data batch")
    if len(messages) > 0xFFFF:
        raise CodecError(f"data batch too large: {len(messages)} messages")
    header_size = _DATA_HEADER.size
    prefix_size = _ITEM_PREFIX.size
    total = _BATCH_HEADER.size
    for message in messages:
        total += prefix_size + header_size + len(message.payload)
    out = bytearray(total)
    _BATCH_HEADER.pack_into(out, 0, MAGIC, TYPE_DATA_BATCH, len(messages))
    offset = _BATCH_HEADER.size
    pack_prefix = _ITEM_PREFIX.pack_into
    pack_header = _DATA_HEADER.pack_into
    for message in messages:
        payload = message.payload
        item_size = header_size + len(payload)
        pack_prefix(out, offset, item_size)
        offset += prefix_size
        pack_header(
            out,
            offset,
            MAGIC,
            TYPE_DATA,
            int(message.service),
            1 if message.post_token else 0,
            message.seq,
            message.pid,
            message.round,
            message.ring_id,
            message.timestamp if message.timestamp is not None else -1.0,
            len(payload),
        )
        offset += header_size
        out[offset : offset + len(payload)] = payload
        offset += len(payload)
    return bytes(out)


def decode_data_batch(data: bytes) -> List[DataMessage]:
    """Decode a coalesced frame into its data messages, in order.

    An item's length prefix and data header are one unpack, and each
    message is built positionally (``DataMessage``'s parameter order);
    the only copies made are the payload slices the returned messages
    own.  Every malformation — a cut anywhere, a bad magic or type, a
    prefix that disagrees with the header, a payload running past the
    frame, bytes after the last item — is a :class:`CodecError`.
    """
    end = len(data)
    if end < _BATCH_HEADER.size:
        raise CodecError(f"datagram too short: {end} bytes")
    magic, msg_type, count = _BATCH_HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CodecError(f"bad magic byte {magic:#x}")
    if msg_type != TYPE_DATA_BATCH:
        raise CodecError(f"not a data batch: type {msg_type}")
    head_size = _ITEM_HEAD.size
    unpack_head = _ITEM_HEAD.unpack_from
    services = SERVICE_FROM_WIRE
    offset = _BATCH_HEADER.size
    messages: List[DataMessage] = []
    append = messages.append
    for _ in range(count):
        start = offset + head_size  # where the item's payload starts
        if start > end:
            raise CodecError(f"truncated batch item header at offset {offset}")
        (
            item_size,
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
        ) = unpack_head(data, offset)
        if item_magic != MAGIC or item_type != TYPE_DATA:
            raise CodecError(f"bad batch item header at offset {offset}")
        if item_size != DATA_HEADER_BYTES + payload_len:
            raise CodecError(
                f"batch item length mismatch: prefix {item_size}, "
                f"header {DATA_HEADER_BYTES + payload_len}"
            )
        offset = start + payload_len
        if offset > end:
            raise CodecError(
                f"truncated batch item: need {payload_len}, have {end - start}"
            )
        append(
            DataMessage(
                seq,
                pid,
                round_,
                services[service],
                data[start:offset],
                post_token != 0,
                payload_len,
                None if timestamp < 0 else timestamp,
                ring_id,
            )
        )
    if offset != end:
        raise CodecError(f"{end - offset} trailing bytes after batch")
    return messages


def encode(message: WireMessage) -> bytes:
    if isinstance(message, DataMessage):
        return encode_data(message)
    if isinstance(message, RegularToken):
        return encode_token(message)
    raise CodecError(f"cannot encode {type(message).__name__}")


def decode(data: bytes) -> WireMessage:
    """Decode one datagram into a data message or token."""
    if len(data) < 2:
        raise CodecError(f"datagram too short: {len(data)} bytes")
    magic, msg_type = data[0], data[1]
    if magic != MAGIC:
        raise CodecError(f"bad magic byte {magic:#x}")
    if msg_type == TYPE_DATA:
        return _decode_data(data)
    if msg_type == TYPE_TOKEN:
        return _decode_token(data)
    raise CodecError(f"unknown message type {msg_type}")


def _decode_data(data: bytes) -> DataMessage:
    """One data message; its length must account for every byte, as an
    item's must in a batch (PROTOCOL.md §15, "malformed datagrams")."""
    size = len(data)
    if size < DATA_HEADER_BYTES:
        raise CodecError("truncated data message header")
    (
        _magic,
        _type,
        service,
        post_token,
        seq,
        pid,
        round_,
        ring_id,
        timestamp,
        payload_len,
    ) = _DATA_HEADER.unpack_from(data)
    if size != DATA_HEADER_BYTES + payload_len:
        if size < DATA_HEADER_BYTES + payload_len:
            raise CodecError(
                f"truncated payload: expected {payload_len}, got {size - DATA_HEADER_BYTES}"
            )
        raise CodecError(
            f"{size - DATA_HEADER_BYTES - payload_len} trailing bytes after data message"
        )
    return DataMessage(
        seq,
        pid,
        round_,
        SERVICE_FROM_WIRE[service],
        data[DATA_HEADER_BYTES:],
        post_token != 0,
        payload_len,
        None if timestamp < 0 else timestamp,
        ring_id,
    )


def _decode_token(data: bytes) -> RegularToken:
    if len(data) < _TOKEN_HEADER.size:
        raise CodecError("truncated token header")
    (
        _magic,
        _type,
        ring_id,
        token_id,
        seq,
        aru,
        aru_lowered_by,
        fcc,
        rotation,
        rtr_count,
    ) = _TOKEN_HEADER.unpack_from(data)
    expected = _TOKEN_HEADER.size + 8 * rtr_count
    if len(data) < expected:
        raise CodecError(f"truncated rtr list: expected {expected}, got {len(data)}")
    rtr = list(struct.unpack_from(f"!{rtr_count}Q", data, _TOKEN_HEADER.size))
    return RegularToken(
        ring_id=ring_id,
        token_id=token_id,
        seq=seq,
        aru=aru,
        aru_lowered_by=None if aru_lowered_by < 0 else aru_lowered_by,
        fcc=fcc,
        rtr=rtr,
        rotation=rotation,
    )

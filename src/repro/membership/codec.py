"""Binary codecs for membership control messages.

Extends the core codec's type space (data=1, token=2) with join=3,
commit=4, recovered=5, status=6, beacon=7.  :func:`decode_any` decodes
every wire message type used by the runtime.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.core import codec as core_codec
from repro.core.codec import MAGIC, TYPE_DATA, TYPE_TOKEN
from repro.core.messages import DataMessage
from repro.core.token import RegularToken
from repro.membership.messages import (
    BeaconMessage,
    CommitToken,
    JoinMessage,
    MemberInfo,
    RecoveredMessage,
    RecoveryStatus,
)
from repro.util.errors import CodecError

TYPE_JOIN = 3
TYPE_COMMIT = 4
TYPE_RECOVERED = 5
TYPE_STATUS = 6
TYPE_BEACON = 7

# magic, type, sender, ring_seq, n_proc, n_fail
_JOIN_HEADER = struct.Struct("!BBIQII")
# magic, type, ring_id, rotation, n_members, n_infos
_COMMIT_HEADER = struct.Struct("!BBQIII")
# per info: pid, old_ring_id, old_aru, high_seq, last_delivered
_COMMIT_INFO = struct.Struct("!IQQQQ")
# magic, type, old_ring_id, inner_length
_RECOVERED_HEADER = struct.Struct("!BBQI")
#: Bytes ``encode_recovered`` adds around the data message it wraps.
RECOVERED_OVERHEAD = _RECOVERED_HEADER.size
# magic, type, sender, new_ring_id, old_ring_id, complete, n_have
_STATUS_HEADER = struct.Struct("!BBIQQBI")
# magic, type, sender, ring_id
_BEACON_HEADER = struct.Struct("!BBIQ")


def encode_join(message: JoinMessage) -> bytes:
    proc = sorted(message.proc_set)
    fail = sorted(message.fail_set)
    header = _JOIN_HEADER.pack(
        MAGIC, TYPE_JOIN, message.sender, message.ring_seq, len(proc), len(fail)
    )
    body = struct.pack(f"!{len(proc) + len(fail)}I", *(proc + fail))
    return header + body


def _decode_join(data: bytes) -> JoinMessage:
    _m, _t, sender, ring_seq, n_proc, n_fail = _JOIN_HEADER.unpack_from(data)
    values = struct.unpack_from(f"!{n_proc + n_fail}I", data, _JOIN_HEADER.size)
    return JoinMessage(
        sender=sender,
        proc_set=frozenset(values[:n_proc]),
        fail_set=frozenset(values[n_proc:]),
        ring_seq=ring_seq,
    )


def encode_commit(token: CommitToken) -> bytes:
    header = _COMMIT_HEADER.pack(
        MAGIC,
        TYPE_COMMIT,
        token.ring_id,
        token.rotation,
        len(token.members),
        len(token.infos),
    )
    members = struct.pack(f"!{len(token.members)}I", *token.members)
    infos = b"".join(
        _COMMIT_INFO.pack(
            pid, info.old_ring_id, info.old_aru, info.high_seq, info.last_delivered
        )
        for pid, info in sorted(token.infos.items())
    )
    return header + members + infos


def _decode_commit(data: bytes) -> CommitToken:
    _m, _t, ring_id, rotation, n_members, n_infos = _COMMIT_HEADER.unpack_from(data)
    offset = _COMMIT_HEADER.size
    members = struct.unpack_from(f"!{n_members}I", data, offset)
    offset += 4 * n_members
    infos = {}
    for _ in range(n_infos):
        pid, old_ring, old_aru, high_seq, last_delivered = _COMMIT_INFO.unpack_from(
            data, offset
        )
        offset += _COMMIT_INFO.size
        infos[pid] = MemberInfo(
            old_ring_id=old_ring,
            old_aru=old_aru,
            high_seq=high_seq,
            last_delivered=last_delivered,
        )
    return CommitToken(ring_id=ring_id, members=tuple(members), infos=infos, rotation=rotation)


def encode_recovered(message: RecoveredMessage) -> bytes:
    inner = core_codec.encode_data(message.message)
    header = _RECOVERED_HEADER.pack(MAGIC, TYPE_RECOVERED, message.old_ring_id, len(inner))
    return header + inner


def _decode_recovered(data: bytes) -> RecoveredMessage:
    _m, _t, old_ring_id, inner_len = _RECOVERED_HEADER.unpack_from(data)
    inner = data[_RECOVERED_HEADER.size : _RECOVERED_HEADER.size + inner_len]
    if len(inner) != inner_len:
        raise CodecError("truncated recovered message")
    decoded = core_codec.decode(inner)
    if not isinstance(decoded, DataMessage):
        raise CodecError("recovered message does not wrap a data message")
    return RecoveredMessage(old_ring_id=old_ring_id, message=decoded)


def encode_status(status: RecoveryStatus) -> bytes:
    header = _STATUS_HEADER.pack(
        MAGIC,
        TYPE_STATUS,
        status.sender,
        status.new_ring_id,
        status.old_ring_id,
        1 if status.complete else 0,
        len(status.have),
    )
    body = struct.pack(f"!{len(status.have)}Q", *status.have) if status.have else b""
    return header + body


def _decode_status(data: bytes) -> RecoveryStatus:
    _m, _t, sender, new_ring, old_ring, complete, n_have = _STATUS_HEADER.unpack_from(data)
    have = struct.unpack_from(f"!{n_have}Q", data, _STATUS_HEADER.size)
    return RecoveryStatus(
        sender=sender,
        new_ring_id=new_ring,
        old_ring_id=old_ring,
        have=tuple(have),
        complete=bool(complete),
    )


def encode_beacon(beacon: BeaconMessage) -> bytes:
    return _BEACON_HEADER.pack(MAGIC, TYPE_BEACON, beacon.sender, beacon.ring_id)


def _decode_beacon(data: bytes) -> BeaconMessage:
    _m, _t, sender, ring_id = _BEACON_HEADER.unpack_from(data)
    return BeaconMessage(sender=sender, ring_id=ring_id)


def encode_any(message: Any) -> bytes:
    """Encode any wire message (core or membership)."""
    if isinstance(message, (DataMessage, RegularToken)):
        return core_codec.encode(message)
    if isinstance(message, JoinMessage):
        return encode_join(message)
    if isinstance(message, CommitToken):
        return encode_commit(message)
    if isinstance(message, RecoveredMessage):
        return encode_recovered(message)
    if isinstance(message, RecoveryStatus):
        return encode_status(message)
    if isinstance(message, BeaconMessage):
        return encode_beacon(message)
    raise CodecError(f"cannot encode {type(message).__name__}")


_DECODERS = {
    TYPE_JOIN: _decode_join,
    TYPE_COMMIT: _decode_commit,
    TYPE_RECOVERED: _decode_recovered,
    TYPE_STATUS: _decode_status,
    TYPE_BEACON: _decode_beacon,
}


def decode_any(data: bytes) -> Any:
    """Decode any wire message (core or membership).

    Anything malformed is a :class:`CodecError` — a membership message
    cut short included, wherever the cut falls — so the token port's
    receive path counts it and goes on (PROTOCOL.md §15, "malformed
    datagrams").
    """
    if len(data) < 2:
        raise CodecError(f"datagram too short: {len(data)} bytes")
    if data[0] != MAGIC:
        raise CodecError(f"bad magic byte {data[0]:#x}")
    msg_type = data[1]
    if msg_type in (TYPE_DATA, TYPE_TOKEN):
        return core_codec.decode(data)
    decoder = _DECODERS.get(msg_type)
    if decoder is None:
        raise CodecError(f"unknown message type {msg_type}")
    try:
        return decoder(data)
    except struct.error as exc:
        raise CodecError(f"truncated type-{msg_type} message: {exc}") from None

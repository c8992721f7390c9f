"""KV command and result model with a byte-stable binary codec.

Commands are the *application payloads* of ordered messages: a client
encodes a command, hands it to the ordering layer for its partition's
group, and every replica of that partition decodes and applies it in
the group's total order.  Because replicas never exchange results —
each computes its own, identically — only commands need a wire format.

The codec is deliberately boring: fixed-width network-byte-order
headers and length-prefixed fields, no compression, no varints.  Byte
stability across processes and Python versions is a correctness
property (WAL files and snapshots embed these bytes; the property
tests pin golden encodings), so cleverness is a liability.

Layout (all integers big-endian)::

    command   := header op*
    header    := client_id:u32  request_id:u64  op_count:u16
    op        := kind:u8 body
    GET/DEL   := klen:u16 key
    PUT       := klen:u16 key vlen:u32 value
    CAS       := klen:u16 key  has_expected:u8 [elen:u32 expected]
                 vlen:u32 value          (has_expected is 0 or 1)

A command with ``op_count > 1`` is a **transaction**: its ops apply
atomically, in order, against one partition (all keys must live in the
same group — the encoder enforces it given a partitioner; cross-shard
transactions are an explicit non-promise, docs/PROTOCOL.md §13).

The decoder is strict: every byte string it accepts re-encodes to
itself, ``encode_command(decode_command(b)) == b``.  That is what lets
a replica log the command bytes exactly as they were ordered
(:mod:`~repro.apps.kv.wal`) instead of re-encoding what it parsed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.util.errors import ConfigurationError

#: Op kinds (wire values — never renumber).
GET, PUT, DELETE, CAS = 1, 2, 3, 4

_KIND_NAMES = {GET: "get", PUT: "put", DELETE: "delete", CAS: "cas"}

_HEADER = struct.Struct("!IQH")
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

#: Upper bounds baked into the wire format.
MAX_KEY_LEN = 0xFFFF
MAX_VALUE_LEN = 0xFFFFFFFF


class CommandError(ConfigurationError):
    """A malformed command (encode- or decode-side)."""


@dataclass(frozen=True)
class Op:
    """One key operation inside a command.

    ``expected`` is meaningful only for CAS: the value the key must
    currently hold for the swap to succeed, with ``None`` meaning the
    key must be absent (compare-and-create).
    """

    kind: int
    key: str
    value: Optional[bytes] = None
    expected: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_NAMES:
            raise CommandError(f"unknown op kind {self.kind}")
        if self.kind in (PUT, CAS) and self.value is None:
            raise CommandError(f"{_KIND_NAMES[self.kind]} needs a value")
        if self.kind in (GET, DELETE) and self.value is not None:
            raise CommandError(f"{_KIND_NAMES[self.kind]} carries no value")
        if self.kind != CAS and self.expected is not None:
            raise CommandError("expected= is a CAS field")

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES[self.kind]

    @property
    def is_write(self) -> bool:
        return self.kind != GET


def get(key: str) -> Op:
    return Op(GET, key)


def put(key: str, value: bytes) -> Op:
    return Op(PUT, key, value=value)


def delete(key: str) -> Op:
    return Op(DELETE, key)


def cas(key: str, expected: Optional[bytes], value: bytes) -> Op:
    return Op(CAS, key, value=value, expected=expected)


@dataclass(frozen=True)
class KvCommand:
    """An ordered unit of work: one op, or an atomic multi-op txn.

    ``(client_id, request_id)`` uniquely identifies the command within
    a group; replicas use it both to match responses to invocations
    and as the idempotence watermark that makes WAL/snapshot/state-
    transfer recovery safely re-appliable (:mod:`repro.apps.kv.store`).
    """

    client_id: int
    request_id: int
    ops: Tuple[Op, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise CommandError("a command needs at least one op")
        if not 0 <= self.client_id <= 0xFFFFFFFF:
            raise CommandError(f"client_id out of range: {self.client_id}")
        if not 0 <= self.request_id <= 0xFFFFFFFFFFFFFFFF:
            raise CommandError(f"request_id out of range: {self.request_id}")

    @property
    def is_transaction(self) -> bool:
        return len(self.ops) > 1

    @property
    def is_write(self) -> bool:
        return any(op.is_write for op in self.ops)


@dataclass(frozen=True)
class KvResult:
    """The deterministic outcome of applying one command.

    Never serialized: every replica computes the identical result, and
    only the submitting client's home replica reports it back into the
    observed history.  ``values`` lines up with the command's ops:
    ``None`` for absent keys (GET/DELETE) and for failed CAS slots.
    ``ok`` is False only when a CAS comparison failed (which aborts the
    whole transaction — no partial writes).
    """

    ok: bool
    values: Tuple[Optional[bytes], ...]
    #: Per-op applied flags: True where the op mutated state.
    applied: Tuple[bool, ...]


def _pack_bytes(out: List[bytes], data: bytes, wide: bool) -> None:
    limit = MAX_VALUE_LEN if wide else MAX_KEY_LEN
    if len(data) > limit:
        raise CommandError(f"field too long: {len(data)} > {limit}")
    out.append((_U32 if wide else _U16).pack(len(data)))
    out.append(data)


def encode_command(command: KvCommand) -> bytes:
    """Serialize ``command``; the inverse of :func:`decode_command`."""
    out: List[bytes] = [
        _HEADER.pack(command.client_id, command.request_id, len(command.ops))
    ]
    for op in command.ops:
        out.append(_U8.pack(op.kind))
        _pack_bytes(out, op.key.encode("utf-8"), wide=False)
        if op.kind == PUT:
            _pack_bytes(out, op.value or b"", wide=True)
        elif op.kind == CAS:
            if op.expected is None:
                out.append(_U8.pack(0))
            else:
                out.append(_U8.pack(1))
                _pack_bytes(out, op.expected, wide=True)
            _pack_bytes(out, op.value or b"", wide=True)
    return b"".join(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CommandError(
                f"truncated command: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def field(self, wide: bool) -> bytes:
        fmt = _U32 if wide else _U16
        (length,) = fmt.unpack(self.take(fmt.size))
        return self.take(length)


def decode_command(data: bytes) -> KvCommand:
    """Parse a command; raises :class:`CommandError` on malformed input."""
    reader = _Reader(data)
    client_id, request_id, op_count = _HEADER.unpack(reader.take(_HEADER.size))
    if op_count == 0:
        raise CommandError("command with zero ops")
    ops: List[Op] = []
    for _ in range(op_count):
        kind = reader.u8()
        if kind not in _KIND_NAMES:
            raise CommandError(f"unknown op kind {kind} on the wire")
        try:
            key = reader.field(wide=False).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CommandError(f"key is not UTF-8: {exc}") from None
        if kind == PUT:
            ops.append(Op(PUT, key, value=reader.field(wide=True)))
        elif kind == CAS:
            present = reader.u8()
            if present > 1:
                raise CommandError(f"CAS presence byte {present}, not 0 or 1")
            expected = reader.field(wide=True) if present else None
            ops.append(Op(CAS, key, value=reader.field(wide=True), expected=expected))
        else:
            ops.append(Op(kind, key))
    if reader.pos != len(data):
        raise CommandError(
            f"{len(data) - reader.pos} trailing byte(s) after command"
        )
    return KvCommand(client_id=client_id, request_id=request_id, ops=tuple(ops))

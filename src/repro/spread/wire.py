"""Envelopes carried inside ordered data-message payloads.

The ordering layer treats payloads as opaque (paper §III-C: "This is not
inspected or used by the protocol"); the toolkit layer structures them as
envelopes: frames containers of one client's groupcasts, group
membership operations, and fragments of large messages.  A daemon orders
every client groupcast inside a frames container, whose layout is
:mod:`repro.spread.frames`'s (PROTOCOL.md §15, "packing").  The bare ``AppData`` envelope and the ``Packed`` container
of encoded envelopes are the reference codec: the frozen micros and
the tests speak them, and no daemon (nor the conformance spread
mirror) submits or forwards either.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.util.errors import CodecError

ENV_APP = 1
ENV_JOIN = 2
ENV_LEAVE = 3
ENV_PACKED = 4
ENV_FRAGMENT = 5
ENV_FRAMES = 6

_TAG = struct.Struct("!B")
_FRAGMENT_HEADER = struct.Struct("!BQII")
_ITEM_LENGTH = struct.Struct("!I")


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"string too long: {len(raw)} bytes")
    return struct.pack("!H", len(raw)) + raw


def _unpack_str(data: bytes, offset: int) -> Tuple[str, int]:
    (length,) = struct.unpack_from("!H", data, offset)
    start = offset + 2
    if start + length > len(data):
        raise CodecError("truncated string")
    return data[start : start + length].decode("utf-8"), start + length


def packed_item_spans(container: bytes) -> List[Tuple[int, int]]:
    """``(start, end)`` of every item of an ``ENV_PACKED`` container.

    ``[B ENV_PACKED][!H count]{[!I len][item]}*``: the lengths are walked
    and checked against the container's size, and a container whose
    items do not all fit is a :class:`CodecError` as a whole.  (Bytes
    after the last item are not looked at.)
    """
    size = len(container)
    if size < 3:
        raise CodecError(f"truncated packed container: {size} bytes")
    unpack_len = _ITEM_LENGTH.unpack_from
    spans = []
    offset = 3
    for _ in range((container[1] << 8) | container[2]):
        start = offset + 4
        if start > size:
            raise CodecError("truncated packed item length")
        offset = start + unpack_len(container, offset)[0]
        if offset > size:
            raise CodecError("truncated packed item")
        spans.append((start, offset))
    return spans


@dataclass(frozen=True)
class AppData:
    """Application data sent to one or more groups.

    Multi-group multicast with cross-group ordering falls out of the
    total order: the single ordered message names all target groups.
    Open-group semantics likewise: nothing requires ``sender`` to be a
    member of any target group.
    """

    sender: str
    groups: Tuple[str, ...]
    payload: bytes

    def encode(self) -> bytes:
        # Single exactly-sized buffer, byte-compatible with the old
        # list-of-parts + join encoding but without the intermediate
        # copies (this runs once per application send).
        sender_raw = self.sender.encode("utf-8")
        if len(sender_raw) > 0xFFFF:
            raise CodecError(f"string too long: {len(sender_raw)} bytes")
        group_raws = []
        total = 1 + 2 + len(sender_raw) + 1
        for group in self.groups:
            raw = group.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise CodecError(f"string too long: {len(raw)} bytes")
            group_raws.append(raw)
            total += 2 + len(raw)
        payload = self.payload
        out = bytearray(total + len(payload))
        out[0] = ENV_APP
        struct.pack_into("!H", out, 1, len(sender_raw))
        offset = 3
        out[offset : offset + len(sender_raw)] = sender_raw
        offset += len(sender_raw)
        out[offset] = len(self.groups)
        offset += 1
        for raw in group_raws:
            struct.pack_into("!H", out, offset, len(raw))
            offset += 2
            out[offset : offset + len(raw)] = raw
            offset += len(raw)
        out[offset:] = payload
        return bytes(out)


@dataclass(frozen=True)
class GroupJoin:
    """A client joined a group (ordered like any message, so every
    daemon applies membership changes at the same point in the order)."""

    member: str
    group: str

    def encode(self) -> bytes:
        return _TAG.pack(ENV_JOIN) + _pack_str(self.member) + _pack_str(self.group)


@dataclass(frozen=True)
class GroupLeave:
    """A client left a group."""

    member: str
    group: str

    def encode(self) -> bytes:
        return _TAG.pack(ENV_LEAVE) + _pack_str(self.member) + _pack_str(self.group)


@dataclass(frozen=True)
class Packed:
    """Several small envelopes packed into one protocol packet."""

    items: Tuple[bytes, ...]  # encoded envelopes

    def encode(self) -> bytes:
        # Single exactly-sized buffer: container header packed in place,
        # each item copied exactly once (the packer calls this for every
        # flushed container, so it sits on the toolkit send path).
        items = self.items
        total = 3
        for item in items:
            total += 4 + len(item)
        out = bytearray(total)
        out[0] = ENV_PACKED
        struct.pack_into("!H", out, 1, len(items))
        offset = 3
        pack_len = struct.pack_into
        for item in items:
            pack_len("!I", out, offset, len(item))
            offset += 4
            end = offset + len(item)
            out[offset:end] = item
            offset = end
        return bytes(out)


@dataclass(frozen=True)
class Fragment:
    """One fragment of a large message; reassembled per (origin, id)."""

    frag_id: int
    index: int
    total: int
    chunk: bytes

    def encode(self) -> bytes:
        return encode_fragment(self.frag_id, self.index, self.total, self.chunk)


def encode_fragment(frag_id: int, index: int, total: int, chunk: "bytes") -> bytes:
    """Encode a Fragment envelope straight from any buffer slice.

    Accepts a ``memoryview`` as well as ``bytes``: the chunk is copied
    exactly once, into the output buffer — there is no intermediate
    header-plus-chunk concatenation copy.  Byte-compatible with
    :meth:`Fragment.encode`.
    """
    header_size = _FRAGMENT_HEADER.size
    out = bytearray(header_size + len(chunk))
    _FRAGMENT_HEADER.pack_into(out, 0, ENV_FRAGMENT, frag_id, index, total)
    out[header_size:] = chunk
    return bytes(out)


Envelope = Union[AppData, GroupJoin, GroupLeave, Packed, Fragment]


def decode_envelope(data: bytes) -> Envelope:
    """Decode one envelope; anything malformed is a :class:`CodecError`."""
    try:
        if not data:
            raise CodecError("empty envelope")
        tag = data[0]
        if tag == ENV_APP:
            sender, offset = _unpack_str(data, 1)
            (count,) = struct.unpack_from("!B", data, offset)
            offset += 1
            groups = []
            for _ in range(count):
                group, offset = _unpack_str(data, offset)
                groups.append(group)
            return AppData(sender=sender, groups=tuple(groups), payload=data[offset:])
        if tag == ENV_JOIN:
            member, offset = _unpack_str(data, 1)
            group, _ = _unpack_str(data, offset)
            return GroupJoin(member=member, group=group)
        if tag == ENV_LEAVE:
            member, offset = _unpack_str(data, 1)
            group, _ = _unpack_str(data, offset)
            return GroupLeave(member=member, group=group)
        if tag == ENV_PACKED:
            # Each item is copied out once: the container owns its items
            # (each is decoded again downstream, so it must not alias the
            # datagram).
            return Packed(
                items=tuple(data[start:end] for start, end in packed_item_spans(data))
            )
        if tag == ENV_FRAGMENT:
            _t, frag_id, index, total = _FRAGMENT_HEADER.unpack_from(data)
            return Fragment(
                frag_id=frag_id, index=index, total=total, chunk=data[_FRAGMENT_HEADER.size :]
            )
        raise CodecError(f"unknown envelope tag {tag}")
    except (struct.error, UnicodeDecodeError) as exc:
        raise CodecError(f"malformed envelope: {exc}") from None

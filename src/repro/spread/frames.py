"""The frames container: how a client's groupcasts are ordered.

Every client groupcast is ordered inside an ``ENV_FRAMES`` container
(PROTOCOL.md §15, "packing"): the sender once, then groupcast frames
exactly as the client wrote them,

    [B ENV_FRAMES][!H len][sender]{[!BI OP_GROUPCAST, n][service][B count]{[!H len][group]}*[payload]}*

This module is the one place that layout is written down.
:func:`pack_groupcasts` turns a client read's groupcasts into the
payloads to order, and :func:`walk_frames` takes an ordered container
apart.  The daemon (:class:`~repro.spread.daemon.SpreadDaemon`) and the
differential's spread variant (:mod:`repro.conformance.variants`) both
call them, so the variant orders and reads what a daemon does.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.codec import DATA_HEADER_BYTES
from repro.core.messages import DeliveryService
from repro.runtime import ipc
from repro.runtime.transport import DATAGRAM_BUDGET
from repro.spread.wire import ENV_FRAMES
from repro.util.errors import CodecError

#: Bytes one frames container may take: what one data datagram carries
#: of a single message's payload.
CONTAINER_BUDGET = DATAGRAM_BUDGET - DATA_HEADER_BYTES

#: ``[B ENV_FRAMES][!H len]`` in front of the sender's name.
_PREFIX = struct.Struct("!BH")
_OP_GROUPCAST = ipc.OP_GROUPCAST
_pack_frame_header = ipc.FRAME_HEADER.pack
_unpack_frame_header = ipc.FRAME_HEADER.unpack_from
_FRAME_HEADER_SIZE = ipc.FRAME_HEADER.size

#: One payload to order: its bytes, its service, and the groupcasts of
#: the frames container it begins (0 if it begins none).
Payload = Tuple[bytes, DeliveryService, int]

#: ``(header, start, end, count)``: ``count`` consecutive whole frames
#: ``container[start:end]`` whose bodies begin with ``header``.
Run = Tuple[bytes, int, int, int]


def frames_prefix(sender: str) -> bytes:
    """The bytes of a frames container before its frames: the tag and
    the sender."""
    raw = sender.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"string too long: {len(raw)} bytes")
    return _PREFIX.pack(ENV_FRAMES, len(raw)) + raw


def pack_groupcasts(
    prefix: bytes,
    frames: Sequence[ipc.Frame],
    start: int,
    parse,
    fragmenter,
    out: List[Payload],
) -> int:
    """Append to ``out`` the payloads that order the groupcasts of
    ``frames[start:]`` up to the first frame that is not one, and return
    that frame's index (``len(frames)`` if there is none).

    Each groupcast's header is validated by ``parse`` (a
    :meth:`~repro.runtime.ipc.GroupcastHeaders.parse`) and its frame is
    kept byte for byte, in order, in a container that begins with
    ``prefix`` (the sender's :func:`frames_prefix`) and takes at most
    :data:`CONTAINER_BUDGET` bytes.  A container ends on a change of
    service, before a frame that does not fit it, and at the stop.  A
    groupcast whose one-frame container is longer than the
    ``fragmenter``'s chunk size is ordered alone, as that container's
    fragments (the fragment fence).  A ``CodecError`` from ``parse``
    propagates once the frames ahead of the refused one are in ``out``.
    """
    room = CONTAINER_BUDGET - len(prefix)
    # The longest frame whose one-frame container is one fragment.
    largest = fragmenter.chunk_size - len(prefix)
    # The container being built: the prefix, then head and body of each
    # frame kept, and the bytes of those frames.
    pending = [prefix]
    size = 0
    service = None
    at = start
    stop = len(frames)
    try:
        while at < stop:
            opcode, body = frames[at]
            if opcode != _OP_GROUPCAST:
                break
            frame_service = parse(body)[1]
            length = len(body)
            frame = _FRAME_HEADER_SIZE + length
            alone = frame > largest
            if size and (alone or frame_service is not service or size + frame > room):
                out.append((b"".join(pending), service, len(pending) >> 1))
                del pending[1:]
                size = 0
            service = frame_service
            head = _pack_frame_header(_OP_GROUPCAST, length)
            if alone:
                first, *rest = fragmenter.fragment(prefix + head + body)
                out.append((first, service, 1))
                out += [(piece, service, 0) for piece in rest]
            else:
                pending += (head, body)
                size += frame
            at += 1
    finally:
        if size:
            out.append((b"".join(pending), service, len(pending) >> 1))
    return at


def walk_frames(
    container: bytes,
    service: DeliveryService,
    last_header: Union[bytes, Tuple[()]] = (),
    decoded: Optional[Dict[bytes, List[str]]] = None,
) -> Tuple[List[Run], int]:
    """The runs of ``container``'s groupcasts, and how many of its frames
    are skipped.

    The container is walked once, before anything is returned: a sender
    or a frame running past its end makes the whole container a
    ``CodecError``.  A frame that is not a groupcast under ``service``
    (the service the container was ordered under), or whose group list
    does not decode, is skipped and ends the run before it.  A header is
    self-delimiting, so a body that begins with ``last_header`` (the
    last header the caller accepted) or with the header of the frame
    before has that header; any other header is walked, and decoded
    unless ``decoded`` holds it.  ``decoded`` (header -> its groups) is
    the caller's memo: the walk reads it and adds what it decodes, so a
    caller that routes by groups decodes no header twice.
    """
    if decoded is None:
        decoded = {}
    size = len(container)
    if size < _PREFIX.size:
        raise CodecError(f"truncated frames container: {size} bytes")
    at = _PREFIX.size + ((container[1] << 8) | container[2])
    if at > size:
        raise CodecError("truncated sender")
    # ``startswith(())`` matches nothing.  A header begins with its
    # service byte: one under another service than the container's would
    # pass frames that must be skipped.
    expect = last_header
    if not expect or expect[0] != service:
        expect = ()
    runs: List[Run] = []
    run_header = None
    first = at
    count = skipped = 0
    try:
        while at < size:
            opcode, length = _unpack_frame_header(container, at)
            body = at + _FRAME_HEADER_SIZE
            end = body + length
            if end > size:
                raise CodecError("truncated frame")
            if opcode == _OP_GROUPCAST and container.startswith(expect, body, end):
                header = expect
            else:
                header = None
                if opcode == _OP_GROUPCAST and body < end and container[body] == service:
                    try:
                        header = container[body : ipc.group_list_end(container, body + 1, end)]
                        if header not in decoded:
                            decoded[header] = ipc.unpack_groupcast(header)[0]
                        expect = header
                    except CodecError:
                        header = None
            if header is not run_header:
                if count:
                    runs.append((run_header, first, at, count))
                run_header = header
                first = at
                count = 0
            if header is None:
                skipped += 1
            else:
                count += 1
            at = end
    except struct.error:
        raise CodecError("truncated frame header") from None
    if count:
        runs.append((run_header, first, at, count))
    return runs, skipped

"""Property tests for the sans-io IPC frame decoder.

However the byte stream of a connection is cut into reads, the decoder
yields the same frames; what is left over is exactly the unfinished
frame.
"""

import asyncio

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.messages import DeliveryService
from repro.runtime import ipc
from repro.util.errors import CodecError
from tests.unit.test_ipc import connected_protocol, next_frame

frames = st.lists(
    st.tuples(st.integers(min_value=0, max_value=255), st.binary(max_size=300)),
    max_size=12,
)


def _cut(stream: bytes, cuts):
    """``stream`` split at the given (unordered, possibly repeated) offsets."""
    points = sorted({cut % (len(stream) + 1) for cut in cuts})
    pieces, start = [], 0
    for point in points:
        pieces.append(stream[start:point])
        start = point
    pieces.append(stream[start:])
    return pieces


@settings(max_examples=200, deadline=None)
@given(frames, st.lists(st.integers(min_value=0), max_size=40), st.binary(max_size=4))
def test_any_chunking_yields_the_frames_of_one_feed(items, cuts, tail):
    # ``tail`` is shorter than a header: an unfinished frame at the end.
    stream = b"".join(ipc.pack_frame(op, body) for op, body in items) + tail
    whole = ipc.FrameDecoder()
    assert whole.feed(stream) == items
    assert whole.partial == tail
    chunked = ipc.FrameDecoder()
    got = []
    for piece in _cut(stream, cuts):
        got.extend(chunked.feed(piece))
    assert got == items
    assert chunked.partial == tail


@settings(max_examples=50, deadline=None)
@given(frames, st.integers(min_value=1, max_value=2**32 - 1 - ipc.MAX_FRAME))
def test_a_length_past_max_frame_raises_after_the_good_frames(items, excess):
    """Wherever the reads cut ``good frames + bad header``, the decoder
    yields exactly the good frames and then holds the error; nothing fed
    afterwards is decoded (PROTOCOL.md §15, "malformed frames")."""
    bad = ipc.FRAME_HEADER.pack(1, ipc.MAX_FRAME + excess)
    good = b"".join(ipc.pack_frame(op, body) for op, body in items)
    stream = good + bad
    chunkings = [[stream], [bytes([byte]) for byte in stream]]
    chunkings += [[stream[:cut], stream[cut:]] for cut in range(len(stream) + 1)]
    for pieces in chunkings:
        decoder = ipc.FrameDecoder()
        got = []
        for piece in pieces:
            got.extend(decoder.feed(piece))
        assert got == items
        assert isinstance(decoder.error, CodecError)
        assert decoder.feed(good) == []


@settings(max_examples=25, deadline=None)
@given(frames, st.integers(min_value=0))
def test_a_reader_serves_the_good_frames_then_raises(items, cut):
    """The same rule one level up: a client's connection
    (``FrameProtocol``'s ``ready`` / ``wait()``) hands out every frame
    ahead of the malformed header, then raises ``CodecError`` — whether
    the bad header arrived in the read that held them or in a later one."""
    bad = ipc.FRAME_HEADER.pack(1, ipc.MAX_FRAME + 1)
    stream = b"".join(ipc.pack_frame(op, body) for op, body in items) + bad
    cut %= len(stream) + 1

    async def run():
        frames_in = connected_protocol()
        frames_in.data_received(stream[:cut])
        got = []
        feeder = asyncio.get_running_loop().call_later(
            0.001, frames_in.data_received, stream[cut:]
        )
        try:
            while True:
                got.append(await asyncio.wait_for(next_frame(frames_in), 5.0))
        except CodecError:
            pass
        finally:
            feeder.cancel()
        assert got == items
        with pytest.raises(CodecError):  # and it stays ended
            await frames_in.wait()

    asyncio.run(run())


# -- the header memo ------------------------------------------------------

names = st.text(max_size=6)
services = st.sampled_from(list(DeliveryService))


def _body(groups, service, payload) -> bytes:
    return ipc.pack_groupcast(groups, service, payload)[ipc.FRAME_HEADER.size :]


valid_bodies = st.builds(_body, st.lists(names, max_size=3), services, st.binary(max_size=20))


@st.composite
def body_sequences(draw):
    """Bodies where each may be built from the one before: the same
    header with another payload, the header alone, a strict prefix of
    the header, one byte changed — or something unrelated."""
    bodies = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["fresh", "same-header", "header-only", "prefix", "mutate", "junk"]))
        if kind == "junk":
            bodies.append(draw(st.binary(max_size=30)))
            continue
        if kind == "fresh" or not bodies:
            bodies.append(draw(valid_bodies))
            continue
        previous = bodies[-1]
        try:
            header = previous[: ipc.group_list_end(previous, 1, len(previous))]
        except CodecError:
            header = previous
        if kind == "same-header":
            bodies.append(header + draw(st.binary(max_size=20)))
        elif kind == "header-only":
            bodies.append(header)
        elif kind == "prefix":
            bodies.append(header[: draw(st.integers(0, max(0, len(header) - 1)))])
        elif previous:
            at = draw(st.integers(0, len(previous) - 1))
            bodies.append(previous[:at] + bytes([draw(st.integers(0, 255))]) + previous[at + 1 :])
        else:
            bodies.append(previous)
    return bodies


def _reference(body: bytes):
    try:
        groups, service, payload = ipc.unpack_groupcast(body)
    except CodecError:
        return None
    return tuple(groups), service, payload


@settings(max_examples=300, deadline=None)
@given(body_sequences())
@example([b"\xff"])
@example([b"\xff\x00payload"])
@example([_body(["g"], DeliveryService.AGREED, b"x"), _body(["g"], DeliveryService.AGREED, b"")[:3]])
@example([_body(["g"], DeliveryService.AGREED, b"x"), _body(["g"], DeliveryService.AGREED, b"")])
def test_header_memo_equals_the_reference_on_any_sequence_of_bodies(bodies):
    """One ``GroupcastHeaders`` over a whole sequence: whatever it
    remembers of earlier bodies, each body parses to what the reference
    ``unpack_groupcast`` makes of it alone, value or ``CodecError``."""
    headers = ipc.GroupcastHeaders()
    for body in bodies:
        reference = _reference(body)
        if reference is None:
            with pytest.raises(CodecError):
                headers.parse(body)
        else:
            groups, service, end = headers.parse(body)
            assert (groups, service, body[end:]) == reference

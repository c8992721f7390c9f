"""Property tests for the sans-io IPC frame decoder.

However the byte stream of a connection is cut into reads, the decoder
yields the same frames; what is left over is exactly the unfinished
frame.
"""

from hypothesis import given, settings, strategies as st

from repro.runtime import ipc
from repro.util.errors import CodecError

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
    bad = ipc._FRAME_HEADER.pack(1, ipc.MAX_FRAME + excess)
    decoder = ipc.FrameDecoder()
    got = []
    try:
        for byte in b"".join(ipc.pack_frame(op, body) for op, body in items) + bad:
            got.extend(decoder.feed(bytes([byte])))
    except CodecError:
        assert got == items
    else:
        raise AssertionError("oversized frame length was accepted")

"""Unit tests for the client-daemon IPC framing."""

import asyncio

import pytest

from repro.core.messages import DeliveryService
from repro.runtime import ipc
from repro.spread.frames import frames_prefix
from repro.util.errors import CodecError


def roundtrip_frames(*frames: bytes):
    """Feed packed frames through a FrameDecoder and read them back."""
    decoder = ipc.FrameDecoder()
    out = decoder.feed(b"".join(frames))
    assert decoder.partial == b""
    return out


def test_submit_roundtrip():
    """What a client submits: its groupcast frame, as ingest parses it."""
    frame = ipc.pack_groupcast(["chat"], DeliveryService.SAFE, b"payload")
    ((opcode, body),) = roundtrip_frames(frame)
    assert opcode == ipc.OP_GROUPCAST
    groups, service, end = ipc.GroupcastHeaders().parse(body)
    assert groups == ("chat",)
    assert service is DeliveryService.SAFE
    assert body[end:] == b"payload"


def test_deliver_roundtrip():
    """What a daemon delivers: the frame its sender wrote, a slice of
    the ordered frames container, as the client parses it."""
    prefix = frames_prefix("s#3")
    container = prefix + ipc.pack_groupcast(["a", "b"], DeliveryService.AGREED, b"data")
    ((opcode, body),) = roundtrip_frames(container[len(prefix) :])
    assert opcode == ipc.OP_GROUPCAST
    groups, service, end = ipc.GroupcastHeaders().parse(body)
    assert groups == ("a", "b")
    assert service is DeliveryService.AGREED
    assert body[end:] == b"data"


def test_config_roundtrip():
    """A membership change reaches a client as a group view, empty once
    the last member has gone."""
    for members in (["a#0", "b#2", "c#5"], []):
        ((opcode, body),) = roundtrip_frames(ipc.pack_group_view("chat", members))
        assert opcode == ipc.OP_GROUP_VIEW
        assert ipc.unpack_group_view(body) == ("chat", members)


def test_group_op_roundtrip():
    frame = ipc.pack_group_op(ipc.OP_JOIN, "chat-room")
    ((opcode, body),) = roundtrip_frames(frame)
    assert opcode == ipc.OP_JOIN
    assert ipc.unpack_group_op(body) == "chat-room"


def test_groupcast_roundtrip():
    frame = ipc.pack_groupcast(["a", "b"], DeliveryService.SAFE, b"payload")
    ((_, body),) = roundtrip_frames(frame)
    groups, service, payload = ipc.unpack_groupcast(body)
    assert groups == ["a", "b"]
    assert service is DeliveryService.SAFE
    assert payload == b"payload"


def test_group_view_roundtrip():
    frame = ipc.pack_group_view("chat", ["a#0", "b#1"])
    ((_, body),) = roundtrip_frames(frame)
    group, members = ipc.unpack_group_view(body)
    assert group == "chat"
    assert members == ["a#0", "b#1"]


def test_hello_welcome_roundtrip():
    ((_, hello_body),) = roundtrip_frames(ipc.pack_hello("alice"))
    assert ipc.unpack_hello(hello_body) == "alice"
    ((_, welcome_body),) = roundtrip_frames(ipc.pack_welcome("alice#4"))
    assert ipc.unpack_welcome(welcome_body) == "alice#4"


#: ``(unpacker, a valid body that is all header)``: payloads are empty, so
#: every strict prefix of the body cuts something the unpacker needs.
_BODIES = [
    (ipc.unpack_group_op, ipc.pack_group_op(ipc.OP_JOIN, "chat")),
    (ipc.unpack_groupcast, ipc.pack_groupcast(["a", "bc"], DeliveryService.SAFE, b"")),
    (ipc.unpack_group_view, ipc.pack_group_view("chat", ["a#0", "b#1"])),
    (ipc.unpack_hello, ipc.pack_hello("alice")),
    (ipc.unpack_welcome, ipc.pack_welcome("alice#4")),
]
_BODIES = [(unpack, frame[ipc.FRAME_HEADER.size :]) for unpack, frame in _BODIES]
_UNPACKER_IDS = [unpack.__name__ for unpack, _ in _BODIES]


@pytest.mark.parametrize("unpack,body", _BODIES, ids=_UNPACKER_IDS)
def test_every_truncation_of_a_body_is_a_codec_error(unpack, body):
    unpack(body)  # the whole body decodes
    for cut in range(len(body)):
        with pytest.raises(CodecError):
            unpack(body[:cut])


@pytest.mark.parametrize("unpack,body", _BODIES, ids=_UNPACKER_IDS)
def test_a_name_that_is_not_utf8_is_a_codec_error(unpack, body):
    with pytest.raises(CodecError):
        unpack(body[:-1] + b"\xff")  # every such body ends inside a name


@pytest.mark.parametrize(
    "unpack,body",
    [
        # A client's groupcast body, as ingest parses it.
        (ipc.GroupcastHeaders().parse, b"\x09\x01\x00\x01gpayload"),
        # A forwarded frame's body (the frame its sender wrote, sliced out
        # of the ordered container), as the client parses it.
        (
            ipc.GroupcastHeaders().parse,
            ipc.pack_frame(ipc.OP_GROUPCAST, b"\x09\x01\x00\x01gpayload")[ipc.FRAME_HEADER.size :],
        ),
        (ipc.unpack_groupcast, b"\x09\x01\x00\x01gpayload"),
    ],
    ids=["submit", "deliver", "groupcast"],
)
def test_a_service_byte_naming_no_service_is_a_codec_error(unpack, body):
    with pytest.raises(CodecError):
        unpack(body)


def test_a_name_length_running_past_the_body_is_a_codec_error():
    # Once returned ``(['g'], AGREED, b'')``: the slice simply came up short.
    with pytest.raises(CodecError):
        ipc.unpack_groupcast(b"\x04\x01\x00\x09g")
    with pytest.raises(CodecError):
        ipc.group_list_end(b"\x04\x01\x00\x09g", 1, 5)


def test_a_name_over_65535_bytes_is_a_codec_error():
    """A name's length is two bytes: one that does not fit is refused as
    every other unencodable name is, not with ``struct.error``."""
    name = "é" * 32768  # 65 536 UTF-8 bytes
    for pack in (
        lambda: ipc.pack_group_op(ipc.OP_JOIN, name),
        lambda: ipc.pack_group_op(ipc.OP_LEAVE, name),
        lambda: ipc.pack_groupcast([name], DeliveryService.AGREED, b"x"),
        lambda: ipc.pack_hello(name),
    ):
        with pytest.raises(CodecError):
            pack()
    assert ipc.unpack_hello(ipc.pack_hello(name[:-1] + "x")[ipc.FRAME_HEADER.size :]) == (
        name[:-1] + "x"
    )


def test_groupcast_rejects_more_groups_than_its_count_byte_holds():
    with pytest.raises(CodecError):
        ipc.pack_groupcast(["g"] * 256, DeliveryService.AGREED, b"")
    frame = ipc.pack_groupcast(["g"] * 255, DeliveryService.AGREED, b"p")
    ((_, body),) = roundtrip_frames(frame)
    assert ipc.unpack_groupcast(body) == (["g"] * 255, DeliveryService.AGREED, b"p")


def test_multiple_frames_stream():
    frames = [
        ipc.pack_groupcast(["g"], DeliveryService.AGREED, b"1"),
        ipc.pack_groupcast(["g"], DeliveryService.AGREED, b"2"),
        ipc.pack_group_op(ipc.OP_LEAVE, "g"),
    ]
    decoded = roundtrip_frames(*frames)
    assert [op for op, _ in decoded] == [ipc.OP_GROUPCAST, ipc.OP_GROUPCAST, ipc.OP_LEAVE]


def test_empty_body_frame():
    frame = ipc.pack_frame(ipc.OP_GROUP_VIEW, b"")
    ((opcode, body),) = roundtrip_frames(frame)
    assert opcode == ipc.OP_GROUP_VIEW
    assert body == b""


class TestFrameDecoder:
    def test_partial_header_and_body_wait_for_more(self):
        frame = ipc.pack_groupcast(["g"], DeliveryService.AGREED, b"payload")
        decoder = ipc.FrameDecoder()
        assert decoder.feed(frame[:3]) == []  # inside the 5-byte header
        assert decoder.partial == frame[:3]
        assert decoder.feed(frame[3:9]) == []  # header complete, body not
        assert decoder.feed(frame[9:] + frame[:2]) == [(ipc.OP_GROUPCAST, frame[5:])]
        assert decoder.partial == frame[:2]

    def test_every_chunking_in_three_yields_the_same_frames(self):
        """Exhaustive where the property test samples: both cuts at every
        offset — inside the 5-byte header, around a 0-byte body, on and
        off frame boundaries — give the frames of one feed."""
        items = [(ipc.OP_GROUPCAST, b"ab"), (ipc.OP_GROUP_VIEW, b""), (ipc.OP_JOIN, b"xyz")]
        stream = b"".join(ipc.pack_frame(op, body) for op, body in items)
        assert ipc.FrameDecoder().feed(stream) == items
        for first in range(len(stream) + 1):
            for second in range(first, len(stream) + 1):
                decoder = ipc.FrameDecoder()
                got = []
                for piece in (stream[:first], stream[first:second], stream[second:]):
                    got.extend(decoder.feed(piece))
                assert got == items, (first, second)
                assert decoder.partial == b"" and decoder.error is None

    def test_a_frame_of_many_reads_is_assembled_once(self):
        body = bytes(range(256)) * 1024  # 256 KiB in 1 KiB reads
        stream = ipc.pack_frame(ipc.OP_GROUPCAST, body) + ipc.pack_frame(ipc.OP_GROUP_VIEW, b"")
        decoder = ipc.FrameDecoder()
        got = []
        for at in range(0, len(stream), 1024):
            got.extend(decoder.feed(stream[at : at + 1024]))
        assert got == [(ipc.OP_GROUPCAST, body), (ipc.OP_GROUP_VIEW, b"")]
        assert decoder.partial == b""

    def test_oversized_length_is_rejected_before_the_body_arrives(self):
        header = ipc.FRAME_HEADER.pack(ipc.OP_GROUPCAST, ipc.MAX_FRAME + 1)
        decoder = ipc.FrameDecoder()
        assert decoder.feed(header) == []
        assert isinstance(decoder.error, CodecError)
        assert "frame too large" in str(decoder.error)
        # The limit itself is a legal length.
        assert ipc.FrameDecoder().feed(
            ipc.FRAME_HEADER.pack(ipc.OP_GROUPCAST, ipc.MAX_FRAME)
        ) == []


class _ReadTransport:
    """What a reading :class:`ipc.FrameProtocol` asks of its transport."""

    def __init__(self) -> None:
        self.reading = True

    def write(self, data: bytes) -> None:
        pass

    def is_closing(self) -> bool:
        return False

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def connected_protocol() -> ipc.FrameProtocol:
    """A client's end of a connection on an in-memory transport: each
    ``data_received`` call is one read.  Call inside a running loop."""
    connection = ipc.FrameProtocol()
    connection.connection_made(_ReadTransport())
    return connection


async def next_frame(connection: ipc.FrameProtocol) -> ipc.Frame:
    """The next frame, taken as the clients take it: popped from
    ``ready``, with ``wait()`` awaited only when that is empty."""
    if not connection.ready:
        await connection.wait()
    return connection.ready.popleft()


class TestFrameReader:
    """A connection as its client reads it: :class:`ipc.FrameProtocol`
    without ``on_frames``, consumed through ``ready`` and ``wait()``."""

    def test_one_read_serves_every_frame_it_contained(self):
        async def run():
            frames = connected_protocol()
            waits = 0
            real_wait = frames.wait

            def counting_wait():
                nonlocal waits
                waits += 1
                return real_wait()

            frames.wait = counting_wait
            burst = [ipc.pack_groupcast([], DeliveryService.AGREED, b"%d" % i) for i in range(5)]
            frames.data_received(b"".join(burst) + burst[0][:4])
            got = [await next_frame(frames) for _ in range(5)]
            assert [body[2:] for _op, body in got] == [b"0", b"1", b"2", b"3", b"4"]
            assert waits == 0
            # The peer goes away mid-frame: the partial bytes are reported.
            frames.eof_received()
            with pytest.raises(asyncio.IncompleteReadError) as caught:
                await next_frame(frames)
            assert caught.value.partial == burst[0][:4]

        asyncio.run(run())

    def test_cancelled_wait_loses_nothing(self):
        """``wait_for(receive(), timeout)`` is how clients poll: a timeout
        while a frame is half-arrived must not desynchronise the stream."""

        async def run():
            frames = connected_protocol()
            frame = ipc.pack_groupcast(["g"], DeliveryService.SAFE, b"split")
            frames.data_received(frame[:7])
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(next_frame(frames), 0.01)
            frames.data_received(frame[7:])
            assert await next_frame(frames) == (ipc.OP_GROUPCAST, frame[5:])

        asyncio.run(run())

    def test_a_consumer_far_behind_stops_the_reading_until_it_catches_up(self):
        async def run():
            frames = connected_protocol()
            frame = ipc.pack_groupcast(["g"], DeliveryService.AGREED, bytes(1000))
            count = ipc.READ_LIMIT // len(frame) + 1
            for _ in range(count):
                frames.data_received(frame)
            assert not frames.transport.reading
            got = [await next_frame(frames) for _ in range(count)]
            assert got == [(ipc.OP_GROUPCAST, frame[5:])] * count
            assert not frames.transport.reading  # nothing has waited yet
            waiting = asyncio.ensure_future(next_frame(frames))
            await asyncio.sleep(0)
            assert frames.transport.reading
            frames.data_received(frame)
            assert await waiting == (ipc.OP_GROUPCAST, frame[5:])

        asyncio.run(run())


def test_read_frame_still_serves_the_frozen_benchmark_micro():
    """benchmarks/e2e/micro.py (frozen) times ``ipc.read_frame``."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(ipc.pack_groupcast(["bench"], DeliveryService.AGREED, b"x"))
        opcode, body = await ipc.read_frame(reader)
        assert opcode == ipc.OP_GROUPCAST
        assert ipc.unpack_groupcast(body) == (["bench"], DeliveryService.AGREED, b"x")

    asyncio.run(run())

"""Property tests for packing a client read (PROTOCOL.md §15, "packing").

A daemon packs the groupcast frames one read of a client's socket
completed, as the client wrote them, into as few ordered payloads as fit
:data:`CONTAINER_BUDGET`.  Client frame streams — groupcasts of every
size around the fragment budget, joins, leaves, both services, at most
one malformed frame — are cut into reads at arbitrary byte positions and
fed, interleaved across clients and daemons, through the real
:class:`~repro.runtime.ipc.FrameProtocol` entry point.  The same frames
fed one per read, in the order the cut reads completed them, are the
reference: a read of one groupcast submits a container of that one frame
(or, past the fragment budget, its fragments).  What every session then
receives is checked against the per-message reference codec, byte for
byte.
"""

import asyncio
import functools

from hypothesis import example, given, settings, strategies as st

from repro.core.codec import encode_data
from repro.core.messages import DataMessage, DeliveryService
from repro.runtime import ipc
from repro.runtime.transport import DATAGRAM_BUDGET
from repro.spread.fragmentation import FRAGMENT_CHUNK
from repro.spread.frames import CONTAINER_BUDGET, frames_prefix
from repro.spread.wire import ENV_FRAGMENT, ENV_FRAMES, decode_envelope
from tests.property.test_groupcast_forwarding import (
    _PerMessageReference,
    _StreamQueue,
    frames_of,
)
from tests.unit.test_spread_daemon_logic import attach_member, make_daemon, one_frame

#: ``(member, daemon pid)`` of every client: two share daemon 0.
CLIENTS = (("a#0", 0), ("b#0", 0), ("c#1", 1))
GROUPS = ("g1", "g2")

#: A malformed frame, whole: what the decoder or the daemon refuses.
MALFORMED = {
    "retired opcode": ipc.pack_frame(1, b"submit"),
    "cut groupcast": ipc.pack_frame(ipc.OP_GROUPCAST, bytes((1, 1, 0, 9)) + b"g"),
    "oversized header": ipc.FRAME_HEADER.pack(ipc.OP_GROUPCAST, ipc.MAX_FRAME + 1),
}

CAST_THEN_MALFORMED = (
    ipc.pack_groupcast(["g1"], DeliveryService.AGREED, b"x") + MALFORMED["retired opcode"]
)
#: Seven groupcasts that all but fill a container, a join, the read cut
#: inside the eighth: the container and the join keep their order.
NEAR_BUDGET = b"".join(
    [ipc.pack_groupcast(["g1", "g2"], DeliveryService.AGREED, bytes(1240))] * 7
    + [ipc.pack_group_op(ipc.OP_JOIN, "g2")]
    + [ipc.pack_groupcast(["g2"], DeliveryService.AGREED, bytes(size)) for size in (1, 1300)]
    + [ipc.pack_groupcast(["g1"], DeliveryService.SAFE, bytes(900))] * 2
)

sizes = st.one_of(
    st.integers(0, 64),
    st.integers(FRAGMENT_CHUNK - 24, FRAGMENT_CHUNK + 8),  # around the fragment budget
    st.sampled_from([1000, 1024, 3 * FRAGMENT_CHUNK]),
)
groupcasts = st.builds(
    lambda groups, service, size, fill: ipc.pack_groupcast(
        list(groups), service, bytes([fill]) * size
    ),
    st.lists(st.sampled_from(GROUPS), min_size=1, max_size=2, unique=True),
    # Mostly one service, so that runs of groupcasts can share a container.
    st.sampled_from([DeliveryService.AGREED] * 3 + [DeliveryService.SAFE]),
    sizes,
    st.integers(0, 255),
)
group_ops = st.builds(
    ipc.pack_group_op, st.sampled_from([ipc.OP_JOIN, ipc.OP_LEAVE]), st.sampled_from(GROUPS)
)
client_frames = st.one_of(groupcasts, groupcasts, groupcasts, group_ops)


class _Queue(_StreamQueue):
    """A session's send queue that keeps what ``send`` accepted, and
    that a disconnect can drain and close."""

    dropped_slow = False

    async def drain_and_close(self):
        pass


class _Fleet:
    """Two daemons and three clients, in memory: each client's frames
    enter through a :class:`~repro.runtime.ipc.FrameProtocol` whose
    handlers are the ones ``SpreadDaemon._hello`` installs, and every
    daemon's submissions go to one shared total order."""

    def __init__(self, joined):
        self.joined = joined
        self.daemons = {pid: make_daemon(pid) for pid in (0, 1)}
        self.order = []  # (origin pid, payload, service), in submission order
        self.connections = {}
        self.queues = {}
        for pid, daemon in self.daemons.items():
            daemon.node.submit = functools.partial(self._submit, pid)
            for member, group in joined:
                daemon.directory.apply_join(member, group)
            daemon.directory.take_dirty()
        for member, pid in CLIENTS:
            daemon = self.daemons[pid]
            session = attach_member(daemon, member)
            session.queue = self.queues[member] = _Queue()
            connection = ipc.FrameProtocol()
            connection.on_frames = functools.partial(daemon._handle_client_read, session)
            connection.on_end = functools.partial(daemon._session_gone, session)
            self.connections[member] = connection

    def _submit(self, pid, payload, service):
        self.order.append((pid, payload, service))

    def read(self, member, data):
        self.connections[member].data_received(data)

    async def deliver(self):
        """Every submission ordered, and handed to every daemon a few
        messages a run; then the disconnects those reads set off."""
        messages = [
            DataMessage(seq=seq, pid=pid, round=1, service=service, payload=payload)
            for seq, (pid, payload, service) in enumerate(self.order, start=1)
        ]
        for daemon in self.daemons.values():
            for at in range(0, len(messages), 4):
                daemon._ordered_delivery(tuple(messages[at : at + 4]), config_id=1)
            await asyncio.gather(*daemon._disconnecting)

    def streams(self):
        return {member: b"".join(queue.accepted) for member, queue in self.queues.items()}

    def reference(self, pid):
        """What the per-message reference codec writes to the sessions
        daemon ``pid`` still holds, handed this fleet's total order."""
        daemon = self.daemons[pid]
        reference = _PerMessageReference(sorted(daemon._sessions))
        for member, group in self.joined:
            reference.directory.apply_join(member, group)
        reference.directory.take_dirty()
        for seq, (origin, payload, service) in enumerate(self.order, start=1):
            reference.apply(
                DataMessage(seq=seq, pid=origin, round=1, service=service, payload=payload)
            )
        return reference


def cut(streams, reads):
    """``(member, data, frames)`` per read: the bytes the read returns
    and the frames it completes, each whole — decoded as the client's
    connection does, up to and including a header the decoder refuses."""
    decoders = {member: ipc.FrameDecoder() for member in streams}
    positions = dict.fromkeys(streams, 0)
    out = []
    for member, size in reads:
        at = positions[member]
        data = streams[member][at : at + size]
        positions[member] = at + len(data)
        decoder = decoders[member]
        frames = []
        if decoder.error is None:
            frames = [ipc.pack_frame(opcode, body) for opcode, body in decoder.feed(data)]
            if decoder.error is not None:
                frames.append(MALFORMED["oversized header"])
        out.append((member, data, frames))
    return out


def opened(payload):
    """A submitted payload as the one-frame containers it stands for:
    each frame of a frames container behind their sender."""
    if payload[0] != ENV_FRAMES:
        return [payload]
    found, whole = frames_of(payload)
    assert whole
    prefix = payload[: 3 + int.from_bytes(payload[1:3], "big")]
    return [prefix + ipc.pack_frame(opcode, body) for opcode, body in found]


def flattened(order):
    """Every container or fragment submitted, containers opened into
    one-frame ones: what one-frame-per-read ingest submitted, payload for
    payload."""
    return [(pid, item, service) for pid, payload, service in order for item in opened(payload)]


@st.composite
def scenarios(draw):
    frames = {
        member: draw(st.lists(client_frames, max_size=24)) for member, _pid in CLIENTS
    }
    if draw(st.booleans()):
        member = draw(st.sampled_from([member for member, _pid in CLIENTS]))
        at = draw(st.integers(0, len(frames[member])))
        frames[member].insert(at, draw(st.sampled_from(sorted(MALFORMED.values()))))
    streams = {member: b"".join(frames[member]) for member in frames}
    left = {member: len(stream) for member, stream in streams.items()}
    reads = []
    while any(left.values()):
        member = draw(st.sampled_from(sorted(m for m in left if left[m])))
        # Most reads take a few frames' worth or the rest; some cut a
        # frame anywhere, down to inside its header.
        size = draw(st.one_of(st.integers(1, 12), st.integers(1, 12_000))) if draw(
            st.booleans()
        ) else left[member]
        size = min(size, left[member])
        reads.append((member, size))
        left[member] -= size
    joined = draw(st.lists(st.tuples(st.sampled_from([m for m, _ in CLIENTS]),
                                     st.sampled_from(GROUPS)), max_size=6))
    return streams, reads, joined


async def _run(streams, reads, joined):
    """Both fleets fed in lockstep: after every read, what the packed
    daemons submitted, containers opened, is what one-frame-per-read
    ingest of the same frames submitted — nothing waits past its read."""
    packed, reference = _Fleet(joined), _Fleet(joined)
    for member, data, frames in cut(streams, reads):
        packed.read(member, data)
        for frame in frames:
            reference.read(member, frame)
        assert flattened(packed.order) == reference.order
    await packed.deliver()
    await reference.deliver()
    return packed, reference


@settings(max_examples=200, deadline=None)
@given(scenarios())
# A groupcast and a malformed frame in one read, from a client in no
# group: no leave follows to flush the groupcast, the end of the read must.
@example(({"a#0": CAST_THEN_MALFORMED, "b#0": b"", "c#1": b""},
          [("a#0", len(CAST_THEN_MALFORMED))], []))
@example(({"a#0": NEAR_BUDGET, "b#0": b"", "c#1": NEAR_BUDGET},
          [("a#0", 8000), ("c#1", len(NEAR_BUDGET)), ("a#0", len(NEAR_BUDGET) - 8000)],
          [("a#0", "g1"), ("b#0", "g2"), ("c#1", "g1")]))
def test_packed_reads_order_what_one_frame_reads_did(scenario):
    streams, reads, joined = scenario
    # _run checks that, opened, the containers are the one-frame-per-read
    # submissions, read by read, in order and under the same services: a
    # join or leave keeps its place behind the groupcasts before it, a
    # dropped client's leaves come after the frames ahead of its
    # malformed one ...
    packed, reference = asyncio.run(_run(streams, reads, joined))
    # ... so every daemon's clients receive the same bytes ...
    streams = packed.streams()
    assert streams == reference.streams()
    written = {frame for stream in scenario[0].values() for frame in _frames(stream)}
    for pid, daemon in packed.daemons.items():
        other = reference.daemons[pid]
        assert daemon.messages_delivered_to_clients == other.messages_delivered_to_clients
        assert daemon.envelopes_undecodable == other.envelopes_undecodable == 0
        assert daemon.clients_dropped_malformed == other.clients_dropped_malformed
        assert sorted(daemon._sessions) == sorted(other._sessions)
        # ... which are, byte for byte, what the per-message reference
        # codec writes to each session still connected (nothing to one
        # dropped before the order was delivered), every groupcast frame
        # in them one that a client wrote, and each counted once.
        codec = packed.reference(pid)
        for member, member_pid in CLIENTS:
            if member_pid == pid:
                assert streams[member] == b"".join(codec.streams.get(member, []))
                for frame in _frames(streams[member]):
                    assert frame[0] != ipc.OP_GROUPCAST or frame in written
        assert daemon.messages_delivered_to_clients == codec.delivered

    fragment_ids = []
    for pid, payload, service in packed.order:
        if payload[0] == ENV_FRAMES:
            found, whole = frames_of(payload)
            # A container is one ordered message that fits one datagram.
            message = DataMessage(seq=1, pid=pid, round=1, service=service, payload=payload)
            assert len(encode_data(message)) <= DATAGRAM_BUDGET
            assert whole and found
            # Only groupcasts whose one-frame container fits the fragment
            # budget are packed, each under the container's service.
            for item in opened(payload):
                assert len(item) <= FRAGMENT_CHUNK
            for opcode, body in found:
                assert opcode == ipc.OP_GROUPCAST and body[0] == service
        elif payload[0] == ENV_FRAGMENT:
            fragment_ids.append((pid, decode_envelope(payload).frag_id))
    # A fragmenting groupcast travels alone, as its one-frame
    # container's fragments: nothing comes between two fragments of one
    # container.
    runs = [key for index, key in enumerate(fragment_ids)
            if index == 0 or fragment_ids[index - 1] != key]
    assert len(runs) == len(set(runs))


def _frames(stream):
    """The whole frames of a byte stream, each as written."""
    return [ipc.pack_frame(opcode, body) for opcode, body in ipc.FrameDecoder().feed(stream)]


def test_a_read_of_sixteen_kib_groupcasts_is_two_containers_of_eight():
    """``fleet-sat``'s read, pinned: 16 groupcasts of 1 KiB in one read
    are two ordered payloads, each a container of eight."""
    async def run():
        fleet = _Fleet([("a#0", "g1")])
        frames = [
            ipc.pack_groupcast(["g1"], DeliveryService.AGREED, bytes([index]) * 1024)
            for index in range(16)
        ]
        fleet.read("a#0", b"".join(frames))
        order = list(fleet.order)
        await fleet.deliver()
        return fleet, frames, order

    fleet, frames, order = asyncio.run(run())
    assert [len(frames_of(payload)[0]) for _pid, payload, _service in order] == [8, 8]
    # Each container is the sender once and then eight frames as written.
    assert [payload for _pid, payload, _service in order] == [
        frames_prefix("a#0") + b"".join(frames[:8]),
        frames_prefix("a#0") + b"".join(frames[8:]),
    ]
    assert fleet.streams()["a#0"] == b"".join(frames)
    daemon = fleet.daemons[0]
    assert (daemon.containers_sent, daemon.envelopes_packed) == (2, 16)
    assert flattened(order) == [
        (0, one_frame("a#0", ("g1",), bytes([index]) * 1024), DeliveryService.AGREED)
        for index in range(16)
    ]


def _message(payload):
    return DataMessage(seq=1, pid=0, round=1, service=DeliveryService.AGREED, payload=payload)


def test_a_container_is_at_most_one_datagram():
    """Groupcasts that make a container exactly one datagram long are one
    container; one byte more and the last of them waits for the next."""
    header = len(encode_data(_message(b"")))
    frame = len(ipc.pack_groupcast(["g1"], DeliveryService.AGREED, b""))
    # The tag and the sender once, then each frame as the client wrote it.
    seven = len(frames_prefix("a#0")) + 7 * (frame + 1200)
    exact = DATAGRAM_BUDGET - header - seven - frame
    assert DATAGRAM_BUDGET - header == CONTAINER_BUDGET

    def read(last):
        fleet = _Fleet([])
        fleet.read("a#0", b"".join(
            ipc.pack_groupcast(["g1"], DeliveryService.AGREED, bytes(size))
            for size in [1200] * 7 + [last]
        ))
        return [payload for _pid, payload, _service in fleet.order]

    (container,) = read(exact)
    assert len(frames_of(container)[0]) == 8
    assert len(encode_data(_message(container))) == DATAGRAM_BUDGET
    first, second = read(exact + 1)
    assert len(frames_of(first)[0]) == 7
    assert second == one_frame("a#0", ("g1",), bytes(exact + 1))

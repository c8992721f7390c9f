"""Property tests for "validate at ingest, forward after" (PROTOCOL.md §15).

The daemon never rebuilds a groupcast: the frame a client wrote is
ordered inside a frames container, behind its sender, and every daemon
hands it to its local members as a slice of that container.  These pin
that (a) every byte is what the reference codec (``frames_prefix`` /
``pack_groupcast`` / ``unpack_groupcast`` / ``decode_envelope``) would
have written, however the container travels; (b) nothing the reference
rejects is accepted, memo cold or warm; (c) a remembered route is never
used past a change to what it was made from; (d) the memos stay bounded.
"""

import asyncio
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.messages import DeliveryService
from repro.evs.configuration import Configuration
from repro.runtime import ipc
from repro.spread.client_api import GroupMessage, SpreadClient
from repro.spread.daemon import ROUTE_MEMO_CAP
from repro.spread.fragmentation import Fragmenter, FragmentReassembler
from repro.spread.frames import frames_prefix
from repro.spread.groups import GroupDirectory
from repro.spread.packing import Packer
from repro.spread.wire import (
    ENV_FRAMES,
    AppData,
    Fragment,
    GroupJoin,
    GroupLeave,
    Packed,
    decode_envelope,
    encode_fragment,
)
from repro.util.errors import CodecError
from tests.unit.test_spread_daemon_logic import (
    attach_member,
    deliver,
    frames,
    make_daemon,
    one_frame,
    ordered,
)

BODY_AT = ipc.FRAME_HEADER.size

names = st.text(max_size=12)
private_names = names.filter(lambda name: "#" not in name)
group_lists = st.lists(names, max_size=6) | st.lists(names, min_size=200, max_size=255)
services = st.sampled_from(list(DeliveryService))
payloads = st.binary(max_size=300)


def body_of(groups, service, payload) -> bytes:
    return ipc.pack_groupcast(list(groups), service, payload)[BODY_AT:]


def frames_of(container: bytes):
    """The reference reading of a frames container: ``(frames, whole)``,
    the ``(opcode, body)`` of every frame after the sender, and whether
    they account for every byte of the container."""
    sender_end = 3 + int.from_bytes(container[1:3], "big")
    decoder = ipc.FrameDecoder()
    found = decoder.feed(container[sender_end:])
    whole = (
        len(container) >= sender_end and decoder.error is None and decoder.partial == b""
    )
    return found, whole


def ingest(daemon, session, body):
    """What the daemon submits to the ring for one client groupcast body,
    read alone (a read of one frame)."""
    submitted = []
    daemon.node.submit = lambda payload, service: submitted.append((payload, service))
    daemon._handle_client_read(session, [(ipc.OP_GROUPCAST, body)])
    return submitted


class _Connection:
    """A client's connection in memory: what it writes lands in
    ``written``, frames put in ``ready`` are what it reads."""

    def __init__(self):
        self.written = []
        self.write = self.written.append
        self.ready = deque()

    def wait(self):
        raise AssertionError("a frame was ready")


def unconnected_client():
    """A client whose writes land in a list: ``(client, written)``."""
    client = SpreadClient("/tmp/unused.sock")
    client._connection = _Connection()
    return client, client._connection.written


def receive(client, body):
    """What ``SpreadClient.receive`` makes of one groupcast body."""
    if client._connection is None:
        client._connection = _Connection()
    client._connection.ready.append((ipc.OP_GROUPCAST, body))
    return asyncio.run(client.receive())


# -- the one group-list walker -------------------------------------------


@settings(max_examples=100, deadline=None)
@given(private_names, group_lists, services, payloads)
def test_envelope_and_groupcast_body_share_their_tail(sender, groups, service, payload):
    """From the group count on, the reference codec's bare envelope and a
    groupcast body are the same bytes, and ``ipc.group_list_end`` — the
    one walker, which the daemon runs on the frames of a container —
    finds where the payload starts in both."""
    envelope = AppData(f"{sender}#0", tuple(groups), payload).encode()
    body = body_of(groups, service, payload)
    start = 3 + int.from_bytes(envelope[1:3], "big")
    assert envelope[start:] == body[1:]
    end = ipc.group_list_end(body, 1, len(body))
    assert ipc.group_list_end(envelope, start, len(envelope)) - start == end - 1
    assert body[end:] == payload


# -- (a) every byte is the reference codec's ----------------------------


@settings(max_examples=100, deadline=None)
@given(private_names, group_lists, services, payloads)
@example("c", ["g"] * 255, DeliveryService.SAFE, b"x")
def test_ingest_envelope_is_the_reference_encoding(sender, groups, service, payload):
    """A read of one groupcast is ordered as a container of one frame:
    the sender once, then the frame as the client wrote it."""
    daemon = make_daemon()
    daemon.fragmenter.chunk_size = 1 << 20  # look at the container whole
    session = attach_member(daemon, f"{sender}#0")
    reference = one_frame(session.member_name, groups, payload, service)
    for _ in range(2):  # memo cold, then warm
        assert ingest(daemon, session, body_of(groups, service, payload)) == [
            (reference, service)
        ]


@settings(max_examples=100, deadline=None)
@given(
    private_names,
    st.lists(names, min_size=1, max_size=6),
    services,
    st.sampled_from(["small", "budget-1", "budget", "budget+1", "3xbudget"]),
    payloads,
)
def test_forwarded_frame_is_the_reference_frame_however_the_envelope_travels(
    sender, groups, service, size, payload
):
    """One daemon, the whole trip: ingest, the real fragmenter at the
    real budget, ordered delivery — and the same groupcast once more as
    the second frame of a frames container.  The receiver's frame is
    ``pack_groupcast`` of what the sender passed to ``multicast``."""
    daemon = make_daemon()
    budget = daemon.fragmenter.chunk_size
    session = attach_member(daemon, f"{sender}#0", groups=[groups[0]])
    header = len(one_frame(session.member_name, groups, b"", service))
    if size != "small":
        target = {"budget-1": budget - 1, "budget": budget, "budget+1": budget + 1,
                  "3xbudget": 3 * budget}[size]
        payload = (payload + bytes(target))[: target - header]
    pieces = ingest(daemon, session, body_of(groups, service, payload))
    expected_pieces = {"budget+1": 2, "3xbudget": 3}.get(size, 1)
    assert len(pieces) == expected_pieces
    for seq, (piece, piece_service) in enumerate(pieces, start=1):
        deliver(daemon, ordered(piece, seq=seq, service=piece_service), config_id=1)
    reference = ipc.pack_groupcast(list(groups), service, payload)
    assert frames(session) == [reference]

    first = ipc.pack_groupcast([groups[0]], service, b"first")
    container = frames_prefix(session.member_name) + first + reference
    deliver(daemon, ordered(container, seq=9, service=service), config_id=1)
    assert frames(session)[1:] == [first, reference]
    assert daemon.messages_delivered_to_clients == 3
    assert daemon.envelopes_undecodable == 0


@settings(max_examples=100, deadline=None)
@given(group_lists, services, payloads)
def test_client_sends_and_receives_the_reference_bytes(groups, service, payload):
    client, written = unconnected_client()
    reference = ipc.pack_groupcast(list(groups), service, payload)
    for _ in range(2):  # memo cold, then warm
        client.multicast(list(groups), payload, service)
        assert receive(client, reference[BODY_AT:]) == GroupMessage(
            tuple(groups), service, payload
        )
    assert written == [reference, reference]


# -- (b) never accept what the reference rejects ------------------------


def mutated(data: bytes, at: int, to: int) -> bytes:
    at %= len(data)
    return data[:at] + bytes([to]) + data[at + 1 :]


#: A groupcast body to start from, and how to break it: replace it with
#: arbitrary bytes, or change one byte.
bodies = st.builds(body_of, st.lists(names, max_size=4), services, st.binary(max_size=40))
breakage = st.one_of(
    st.tuples(st.just("replace"), st.binary(max_size=60)),
    st.tuples(st.just("mutate"), st.integers(min_value=0), st.integers(0, 255)),
)


def broken(valid: bytes, how) -> bytes:
    if how[0] == "replace":
        return how[1]
    return mutated(valid, how[1], how[2])


def reference_groupcast(body: bytes):
    try:
        groups, service, payload = ipc.unpack_groupcast(body)
    except CodecError:
        return None
    return tuple(groups), service, payload


@settings(max_examples=300, deadline=None)
@given(bodies, breakage, st.booleans())
def test_ingest_accepts_exactly_what_the_reference_accepts(valid, how, warm):
    daemon = make_daemon()
    daemon.fragmenter.chunk_size = 1 << 20
    session = attach_member(daemon, "c#0")
    if warm:
        ingest(daemon, session, valid)
    body = broken(valid, how)
    reference = reference_groupcast(body)
    if reference is None:
        with pytest.raises(CodecError):
            ingest(daemon, session, body)
    else:
        groups, service, payload = reference
        assert ingest(daemon, session, body) == [
            (one_frame("c#0", groups, payload, service), service)
        ]


@settings(max_examples=300, deadline=None)
@given(bodies, breakage, st.booleans())
def test_receive_accepts_exactly_what_the_reference_accepts(valid, how, warm):
    client = SpreadClient("/tmp/unused.sock")
    if warm:
        receive(client, valid)
    body = broken(valid, how)
    reference = reference_groupcast(body)
    if reference is None:
        with pytest.raises(CodecError):
            receive(client, body)
    else:
        assert receive(client, body) == GroupMessage(*reference)


def reference_forward(container: bytes, service):
    """What the reference reading of a frames container ordered under
    ``service`` forwards: ``(groupcasts, skipped)``, the ``(groups,
    payload)`` of each frame it delivers and the frames it skips; ``None``
    if the container does not hold whole frames."""
    found, whole = frames_of(container)
    if not whole:
        return None
    groupcasts, skipped = [], 0
    for opcode, body in found:
        try:
            if opcode != ipc.OP_GROUPCAST or body[:1] != bytes([service]):
                raise CodecError("not a groupcast under the container's service")
            groups, _service, payload = ipc.unpack_groupcast(body)
        except CodecError:
            skipped += 1
            continue
        groupcasts.append((groups, payload))
    return groupcasts, skipped


@settings(max_examples=300, deadline=None)
@given(bodies, services, breakage, st.booleans())
def test_forward_accepts_exactly_what_the_reference_accepts(valid, service, how, warm):
    """Ordered bytes tagged ENV_FRAMES either reach the local members of
    the groups the reference decodes, as the reference frames, or are
    counted undecodable — the whole container, or each frame the
    reference skips — and reach no one."""
    daemon = make_daemon()
    member = attach_member(daemon, "m#0")

    def join_all(container: bytes):
        """Put the member in every group the reference reads from it."""
        forwarded = reference_forward(container, service)
        for groups, _payload in forwarded[0] if forwarded else ():
            for group in groups:
                deliver(daemon, ordered(GroupJoin("m#0", group).encode()), config_id=1)
        return forwarded

    valid_container = frames_prefix("s#1") + ipc.pack_frame(ipc.OP_GROUPCAST, valid)
    if warm:
        join_all(valid_container)
        deliver(daemon, ordered(valid_container, service=service), config_id=1)
    if how[0] == "replace":
        container = bytes([ENV_FRAMES]) + how[1]
    else:  # any byte but the tag: another tag is another envelope type
        container = valid_container[:1] + mutated(valid_container[1:], how[1], how[2])
    forwarded = join_all(container)
    member.queue._frames.clear()
    undecodable = daemon.envelopes_undecodable
    deliver(daemon, ordered(container, service=service), config_id=1)
    if forwarded is None:
        assert frames(member) == []
        assert daemon.envelopes_undecodable == undecodable + 1
    else:
        groupcasts, skipped = forwarded
        assert frames(member) == [
            ipc.pack_groupcast(groups, service, payload)
            for groups, payload in groupcasts
            if groups
        ]
        assert daemon.envelopes_undecodable == undecodable + skipped


# -- (c) a route is never used past a change ----------------------------


class _RecordingQueue:
    """Stands in for a session's send queue: one shared log of who was
    sent what, in order."""

    writes = 0  # never touches a socket

    def __init__(self, log):
        self.log = log
        self.accepting = True

    def send(self, frame):
        self.log.append((self, frame))
        return self.accepting


TARGET = ("g1", "g2")
locals_ = st.sampled_from(["a", "b", "c"])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("connect"), locals_),
        st.tuples(st.just("disconnect"), locals_),
        st.tuples(st.just("reconnect"), locals_),
        st.tuples(st.just("stall"), locals_),
        st.tuples(st.just("join"), locals_, st.sampled_from(["g1", "g2", "g3"])),
        st.tuples(st.just("leave"), locals_, st.sampled_from(["g1", "g2", "g3"])),
        st.tuples(st.just("remote-join"), locals_, st.sampled_from(["g1", "g2"])),
        st.tuples(st.just("prune"), st.sampled_from([(0,), (0, 1)])),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_route_is_the_from_scratch_resolve_after_every_change(ops):
    """The same header delivered after each of: a client connecting, one
    disconnecting (its leaves ordered later), a reconnect under the same
    name (session count unchanged), a client starting to refuse frames,
    local and remote joins, leaves, and a configuration that prunes a
    daemon.  Each time the frame goes to exactly the sessions — the
    objects, in order — that resolving the groups from nothing gives,
    and ``messages_delivered_to_clients`` counts the accepted sends."""
    daemon = make_daemon(pid=0)
    log = []
    container = one_frame("s#1", TARGET, b"payload")
    frame = ipc.pack_groupcast(list(TARGET), DeliveryService.AGREED, b"payload")

    def connect(name):
        session = attach_member(daemon, f"{name}#0")
        session.queue = _RecordingQueue(log)

    def deliver_and_check():
        targets = set()
        for group in TARGET:
            targets.update(daemon.directory.members(group))
        expected = [
            daemon._sessions[member].queue
            for member in sorted(targets)
            if member in daemon._sessions
        ]
        del log[:]
        before = daemon.messages_delivered_to_clients
        deliver(daemon, ordered(container), config_id=1)
        assert [queue for queue, _ in log] == expected
        assert all(sent is log[0][1] and sent == frame for _, sent in log)
        assert daemon.messages_delivered_to_clients - before == sum(
            queue.accepting for queue in expected
        )

    connect("a")
    deliver(daemon, ordered(GroupJoin("a#0", "g1").encode()), config_id=1)
    deliver_and_check()  # the memo is warm from here on
    for op in ops:
        kind, name = op[0], f"{op[1]}#0"
        if kind == "connect":
            if name not in daemon._sessions:
                connect(op[1])
        elif kind == "disconnect":
            if name in daemon._sessions:
                daemon._detach(daemon._sessions[name])
        elif kind == "reconnect":
            if name in daemon._sessions:
                daemon._detach(daemon._sessions[name])
                connect(op[1])
        elif kind == "stall":
            if name in daemon._sessions:
                daemon._sessions[name].queue.accepting = False
        elif kind == "join":
            deliver(daemon, ordered(GroupJoin(name, op[2]).encode()), config_id=1)
        elif kind == "leave":
            deliver(daemon, ordered(GroupLeave(name, op[2]).encode()), config_id=1)
        elif kind == "remote-join":
            deliver(daemon, ordered(GroupJoin(f"{op[1]}#1", op[2]).encode()), config_id=1)
        else:
            daemon._config_changed(Configuration.regular(7, op[1]))
        deliver_and_check()


# -- (d) the memos are bounded -------------------------------------------


def test_ten_thousand_distinct_headers_leave_every_memo_at_or_under_its_cap():
    daemon = make_daemon()
    session = attach_member(daemon, "c#0")
    client, written = unconnected_client()
    for index in range(10_000):
        client.multicast([f"group-{index}"], b"x")
        (frame,) = written
        written.clear()
        ((container, service),) = ingest(daemon, session, frame[BODY_AT:])
        deliver(daemon, ordered(container, service=service), config_id=1)
        client._received_headers.parse(frame[BODY_AT:])
    assert 0 < len(daemon._headers._known) <= ipc.HEADER_MEMO_CAP
    assert 0 < len(daemon._routes) <= ROUTE_MEMO_CAP
    assert 0 < len(client._received_headers._known) <= ipc.HEADER_MEMO_CAP
    assert 0 < len(client._sent_headers) <= ipc.HEADER_MEMO_CAP
    assert daemon.envelopes_undecodable == 0


# -- (e) a run at a time: every session's bytes are the reference's -----


class _StreamQueue:
    """Stands in for a session's send queue: keeps what ``send`` accepted."""

    writes = 0
    closing = False

    def __init__(self):
        self.accepted = []

    def send(self, data):
        self.accepted.append(data)
        return True

    @property
    def stream(self) -> bytes:
        return b"".join(self.accepted)


class _PerMessageReference:
    """What one daemon writes to its local sessions, worked out a message
    at a time from the reference codec alone: :func:`reference_forward`
    and ``decode_envelope`` to read, ``pack_groupcast`` /
    ``pack_group_view`` to write, a directory and a reassembler of its
    own.  A frames container whose frames do not all fit is one
    undecodable payload; a frame in it that is not a groupcast under the
    container's service is one and is skipped; a bare ``AppData``
    envelope and a ``Packed`` container are one each (every groupcast is
    ordered in a frames container)."""

    def __init__(self, local):
        self.directory = GroupDirectory()
        self.reassembler = FragmentReassembler()
        self.streams = {member: [] for member in local}
        self.delivered = 0
        self.undecodable = 0

    def apply(self, message, payload=None, reassembled=False):
        payload = message.payload if payload is None else payload
        if payload[:1] == bytes([ENV_FRAMES]):
            forwarded = reference_forward(payload, message.service)
            if forwarded is None:
                self.undecodable += 1
                return
            groupcasts, skipped = forwarded
            self.undecodable += skipped
            for groups, data in groupcasts:
                self._groupcast(groups, message.service, data)
            return
        try:
            decoded = decode_envelope(payload)
            if isinstance(decoded, Fragment) and not reassembled:
                whole = self.reassembler.accept(message.pid, decoded)
                if whole is not None:
                    self.apply(message, whole, reassembled=True)
                return
            if not isinstance(decoded, (GroupJoin, GroupLeave)):
                raise CodecError("bare AppData, a Packed container, a fragment of a fragment")
        except CodecError:
            self.undecodable += 1
            return
        if isinstance(decoded, GroupJoin):
            self.directory.apply_join(decoded.member, decoded.group)
        else:
            self.directory.apply_leave(decoded.member, decoded.group)
        for group in self.directory.take_dirty():
            members = list(self.directory.members(group))
            self._write(members, ipc.pack_group_view(group, members))

    def _groupcast(self, groups, service, payload):
        targets = set()
        for group in groups:
            targets.update(self.directory.members(group))
        self._write(targets, ipc.pack_groupcast(list(groups), service, payload))
        self.delivered += sum(member in self.streams for member in targets)

    def _write(self, members, frame):
        for member in sorted(set(members)):
            if member in self.streams:
                self.streams[member].append(frame)


LOCAL = ("a#0", "b#0", "c#0")
MEMBERS = LOCAL + ("r#1",)
GROUPS = ("g1", "g2", "g3")
group_subsets = st.lists(st.sampled_from(GROUPS), max_size=3).map(tuple)
one_frames = st.builds(
    lambda sender, groups, payload, service: (one_frame(sender, groups, payload, service), service),
    st.sampled_from(MEMBERS), group_subsets, st.binary(max_size=40), services,
)
changes = st.builds(
    lambda kind, member, group: kind(member, group).encode(),
    st.sampled_from([GroupJoin, GroupLeave]), st.sampled_from(MEMBERS), st.sampled_from(GROUPS),
)
AGREED = DeliveryService.AGREED
SAFE = DeliveryService.SAFE


def frames_container(sender, casts, service=AGREED):
    """A frames container of ``(groups, payload)`` groupcasts, as ingest
    builds one from a read."""
    return frames_prefix(sender) + b"".join(
        ipc.pack_groupcast(list(groups), service, payload) for groups, payload in casts
    )


_GOOD = ipc.pack_groupcast(["g1"], AGREED, b"good")
#: Ordered payloads the daemon must count and skip, with the service
#: they are ordered under: ``(payload, service)``.
JUNK = (
    (b"", None),
    (b"\x09not an envelope", None),
    # The reference codec's bare envelope and its container: every
    # groupcast is ordered in a frames container, so no daemon forwards
    # either, whole or cut.
    (AppData("s#1", ("g1",), b"bare").encode(), None),
    (AppData("s#1", ("g1", "g2"), b"").encode()[:-3], None),  # cut inside the group list
    (Packed((AppData("s#1", ("g1",), b"x").encode(),)).encode(), None),
    # One-frame containers: cut in the frame, under another service, a
    # frame that is not a groupcast.
    (one_frame("s#1", ("g1",), b"x")[:-1], AGREED),
    (one_frame("s#1", ("g1",), b"x", SAFE), AGREED),
    (one_frame("s#1", ("g1",), b"x"), SAFE),
    (frames_prefix("s#1") + ipc.pack_group_op(ipc.OP_JOIN, "g1"), AGREED),
    # Frames containers: a frame running past the end (whole container
    # one undecodable, nothing written) ...
    (frames_container("s#1", [(("g1",), b"a"), (("g2",), b"b")])[:-1], AGREED),
    (frames_prefix("s#1")[:-1], AGREED),  # cut inside the sender
    (frames_prefix("s#1") + _GOOD + _GOOD[:3], AGREED),  # cut inside a frame header
    # ... and frames skipped alone, the ones around them forwarded: not
    # a groupcast, another service, an empty body, a group name that is
    # not UTF-8, a group list that runs past its frame.
    (frames_prefix("s#1") + _GOOD + ipc.pack_group_op(ipc.OP_JOIN, "g1") + _GOOD, AGREED),
    (frames_prefix("s#1") + _GOOD + ipc.pack_groupcast(["g1"], SAFE, b"x") + _GOOD, AGREED),
    (frames_prefix("s#1") + _GOOD + ipc.pack_frame(ipc.OP_GROUPCAST, b"") + _GOOD, AGREED),
    (
        frames_prefix("s#1") + _GOOD
        + ipc.pack_frame(ipc.OP_GROUPCAST, bytes((AGREED, 1, 0, 1)) + b"\xff") + _GOOD,
        AGREED,
    ),
    (
        frames_prefix("s#1") + _GOOD
        + ipc.pack_frame(ipc.OP_GROUPCAST, bytes((AGREED, 2, 0, 2)) + b"g1") + _GOOD,
        AGREED,
    ),
)
#: One ordered payload, or (a fragmented envelope) several that other
#: senders' payloads may come between: ``(origin pid, [(payload,
#: service)])``, the service ``None`` where any will do.
any_service = st.just(None)
submissions = st.one_of(
    st.tuples(st.integers(0, 2), one_frames.map(lambda e: [e])),
    st.tuples(st.integers(0, 2), st.tuples(changes, any_service).map(lambda e: [e])),
    st.tuples(
        st.integers(0, 2),
        st.builds(
            lambda sender, casts, service: [(frames_container(sender, casts, service), service)],
            st.sampled_from(MEMBERS),
            st.lists(st.tuples(group_subsets, st.binary(max_size=40)), min_size=2, max_size=4),
            services,
        ),
    ),
    st.tuples(st.integers(0, 2), st.sampled_from(JUNK).map(lambda junk: [junk])),
    # One sender and one group list again and again, joins and leaves in
    # between: the forwarder's last-group-list memo hits, and must not
    # outlive the route a join or leave between two of them ends.
    st.tuples(
        st.integers(0, 2),
        st.lists(
            st.tuples(
                st.binary(max_size=20).map(lambda p: one_frame("s#1", ("g1", "g2"), p))
                | changes
                | st.lists(st.binary(max_size=20), min_size=2, max_size=3).map(
                    lambda ps: frames_container("s#1", [(("g1", "g2"), p) for p in ps])
                ),
                st.just(AGREED),
            ),
            min_size=2,
            max_size=6,
        ),
    ),
    # A groupcast too long for one fragment: its one-frame container's
    # fragments, all under the frame's service.
    st.tuples(
        st.integers(0, 2),
        st.builds(
            lambda groups, size, frag_id, service: [
                (encode_fragment(frag_id, index, len(chunks), chunk), service)
                for chunks in [_chunks(one_frame("big#1", groups, bytes(size), service), 48)]
                for index, chunk in enumerate(chunks)
            ],
            group_subsets, st.integers(60, 200), st.integers(1, 3), services,
        ),
    ),
)


def _chunks(data: bytes, size: int):
    return [data[at : at + size] for at in range(0, len(data), size)]


@st.composite
def ordered_runs(draw):
    """A total order of payloads — each submission's payloads in order,
    submissions interleaved — cut into delivered runs."""
    pending = [
        [(pid, payload) for payload in payloads]
        for pid, payloads in draw(st.lists(submissions, min_size=1, max_size=14))
    ]
    order = []
    while pending:
        queue = draw(st.sampled_from(pending[:3]))
        order.append(queue.pop(0))
        if not queue:
            pending.remove(queue)
    messages = [
        ordered(payload, seq=seq, pid=pid, service=draw(services) if service is None else service)
        for seq, (pid, (payload, service)) in enumerate(order, start=1)
    ]
    runs = []
    while messages:
        size = draw(st.integers(1, 8))
        runs.append(tuple(messages[:size]))
        messages = messages[size:]
    return runs


@settings(max_examples=300, deadline=None)
@given(ordered_runs(), st.lists(st.tuples(st.sampled_from(LOCAL), st.sampled_from(GROUPS)), max_size=5))
def test_a_run_writes_each_session_the_bytes_of_the_per_message_reference(runs, joined):
    """Runs mixing one-frame containers to several group lists, longer
    frames containers, fragments of interleaved senders, joins and leaves
    mid-run, and payloads or frames that do not decode: for every session, the
    concatenation of what ``queue.send`` accepted is the concatenation
    of the frames the reference writes a message at a time — so a view
    never overtakes data, and no chunk crosses a change of route."""
    daemon = make_daemon(pid=0)
    reference = _PerMessageReference(LOCAL)
    queues = {}
    for member in LOCAL:
        session = attach_member(daemon, member)
        session.queue = queues[member] = _StreamQueue()
    for member, group in joined:
        daemon.directory.apply_join(member, group)
        reference.directory.apply_join(member, group)
    daemon.directory.take_dirty()
    reference.directory.take_dirty()

    for run in runs:
        daemon._ordered_delivery(run, config_id=1)
        assert daemon._chunk == []  # nothing waits for the next run
        for message in run:
            reference.apply(message)
    for member in LOCAL:
        assert queues[member].stream == b"".join(reference.streams[member])
    assert daemon.messages_delivered_to_clients == reference.delivered
    assert daemon.envelopes_undecodable == reference.undecodable


@settings(max_examples=200, deadline=None)
@given(
    ordered_runs(),
    st.lists(st.tuples(st.sampled_from(["connect", "disconnect"]), st.sampled_from(LOCAL))),
    st.lists(st.tuples(st.sampled_from(LOCAL), st.sampled_from(GROUPS)), max_size=5),
)
def test_a_route_memo_does_not_outlive_a_connect_or_disconnect(runs, events, joined):
    """The run-stream property again, with clients connecting and
    disconnecting (a reconnect is a new session under an old name) between
    runs — a connect or a disconnect is its own callback, so it lands
    between two delivered runs.  Every session, gone or still connected,
    got exactly the bytes the per-message reference writes to it while it
    was there."""
    daemon = make_daemon(pid=0)
    reference = _PerMessageReference(())
    streams = []  # (the session's queue, the reference's stream for it)

    def connect(member):
        session = attach_member(daemon, member)
        session.queue = queue = _StreamQueue()
        reference.streams[member] = []
        streams.append((queue, reference.streams[member]))

    for member in LOCAL[:2]:
        connect(member)
    for member, group in joined:
        daemon.directory.apply_join(member, group)
        reference.directory.apply_join(member, group)
    daemon.directory.take_dirty()
    reference.directory.take_dirty()

    for index, run in enumerate(runs):
        if index < len(events):
            kind, member = events[index]
            if kind == "connect":
                if member in daemon._sessions:  # a reconnect
                    daemon._detach(daemon._sessions[member])
                connect(member)
            elif member in daemon._sessions:
                daemon._detach(daemon._sessions[member])
                del reference.streams[member]
        daemon._ordered_delivery(run, config_id=1)
        for message in run:
            reference.apply(message)
    for queue, expected in streams:
        assert queue.stream == b"".join(expected)
    assert daemon.messages_delivered_to_clients == reference.delivered
    assert daemon.envelopes_undecodable == reference.undecodable


def test_consecutive_messages_with_one_route_are_one_send():
    """The point of the exercise, pinned: a run of one-frame containers
    to one group list reaches each session as a single ``send``, a join
    in the middle of a run cuts it in two around the view."""
    daemon = make_daemon(pid=0)
    session = attach_member(daemon, "a#0", groups=["g"])
    session.queue = queue = _StreamQueue()
    data = [
        ordered(one_frame(f"s#{pid}", ("g",), b"%d" % seq), seq=seq, pid=pid)
        for seq, pid in enumerate((1, 2, 1, 1, 2), start=1)
    ]
    frame = {m.seq: ipc.pack_groupcast(["g"], m.service, b"%d" % m.seq) for m in data}
    daemon._ordered_delivery(tuple(data), config_id=1)
    assert queue.accepted == [b"".join(frame[seq] for seq in (1, 2, 3, 4, 5))]
    assert daemon.messages_delivered_to_clients == 5

    del queue.accepted[:]
    join = ordered(GroupJoin("r#1", "g").encode(), seq=6)
    daemon._ordered_delivery((data[0], data[1], join, data[2]), config_id=1)
    assert queue.accepted == [
        frame[1] + frame[2],
        ipc.pack_group_view("g", ["a#0", "r#1"]),
        frame[3],
    ]


def test_a_frames_container_is_one_slice_and_its_bad_frames_are_skipped_alone():
    """A container's frames with one route reach a session as one piece,
    byte for byte as written; a frame running past the container makes
    it one undecodable payload that writes nothing; a frame that is not
    a groupcast under the container's service, or whose group list does
    not decode, is one undecodable frame, and the frames around it are
    still forwarded."""
    daemon = make_daemon(pid=0)
    session = attach_member(daemon, "a#0", groups=["g"])
    session.queue = queue = _StreamQueue()
    casts = [ipc.pack_groupcast(["g"], AGREED, b"%d" % index) for index in range(4)]
    container = frames_container("s#1", [(("g",), b"%d" % index) for index in range(4)])
    assert container == frames_prefix("s#1") + b"".join(casts)
    daemon._ordered_delivery((ordered(container),), config_id=1)
    assert queue.accepted == [b"".join(casts)]
    assert daemon.messages_delivered_to_clients == 4

    for cut in (1, 4, len(casts[-1]) - 2):  # cut in the body or the head
        daemon._ordered_delivery((ordered(container[:-cut], seq=2),), config_id=1)
    assert len(queue.accepted) == 1
    assert daemon.envelopes_undecodable == 3

    bad = [
        ipc.pack_group_op(ipc.OP_JOIN, "g"),
        ipc.pack_groupcast(["g"], SAFE, b"safe"),
        ipc.pack_frame(ipc.OP_GROUPCAST, b""),
        ipc.pack_frame(ipc.OP_GROUPCAST, bytes((AGREED, 1, 0, 1)) + b"\xff"),
        ipc.pack_frame(ipc.OP_GROUPCAST, bytes((AGREED, 1, 0, 9)) + b"g"),
    ]
    mixed = frames_prefix("s#1") + casts[0] + b"".join(bad) + casts[1] + bad[1] + casts[2]
    daemon._ordered_delivery((ordered(mixed, seq=3),), config_id=1)
    assert queue.accepted[1:] == [casts[0] + casts[1] + casts[2]]
    assert daemon.envelopes_undecodable == 3 + 6
    assert daemon.messages_delivered_to_clients == 4 + 3

    # A frame's service byte is checked against its container's even when
    # its header is the one the container before forwarded.
    other = ordered(frames_prefix("s#1") + casts[0], seq=4, service=SAFE)
    daemon._ordered_delivery((other,), config_id=1)
    assert len(queue.accepted) == 2
    assert daemon.envelopes_undecodable == 3 + 6 + 1


deliveries = st.lists(
    st.builds(
        lambda pid, service, payload: (pid, service, payload),
        st.integers(0, 5), services, st.binary(max_size=60),
    ),
    min_size=1, max_size=20,
)


@settings(max_examples=100, deadline=None)
@given(deliveries, st.lists(st.integers(1, 8), min_size=1, max_size=20))
def test_daemon_server_writes_a_run_as_the_per_message_deliver_frames(items, sizes):
    """One delivered run of one-frame containers to one group list is one
    ``send`` per session, and the sends concatenate to the per-message
    frames."""
    daemon = make_daemon(pid=0)
    queues = []
    for member in ("a#0", "b#0"):
        session = attach_member(daemon, member, groups=["g"])
        session.queue = _StreamQueue()
        queues.append(session.queue)
    messages = [
        ordered(one_frame(f"s#{pid}", ("g",), payload, service), seq=seq, pid=pid, service=service)
        for seq, (pid, service, payload) in enumerate(items, start=1)
    ]
    sends = 0
    rest = messages
    for size in sizes:
        if not rest:
            break
        daemon._ordered_delivery(tuple(rest[:size]), config_id=1)
        rest = rest[size:]
        sends += 1
    reference = b"".join(
        ipc.pack_groupcast(["g"], service, payload)
        for _pid, service, payload in items[: len(messages) - len(rest)]
    )
    for queue in queues:
        assert queue.stream == reference
        assert len(queue.accepted) == sends  # one send per run


# -- a one-groupcast read submits what fragment -> Packer.add -> flush did --


def _fragment_pack_flush(fragmenter, packer, envelope):
    """``_submit_envelope`` as it was while the daemon kept a packer it
    flushed after every envelope (PROTOCOL.md §15, "packing")."""
    out = []
    for piece in fragmenter.fragment(envelope):
        out.extend(packer.add(piece))
    out.extend(packer.flush())
    return out


@pytest.mark.parametrize("budget", [64, 200, 1350])
def test_submit_envelope_submits_what_the_flushed_packer_did(budget):
    """A read of one groupcast submits, around the fragment budget, what
    the flush-after-every-envelope packer made of its one-frame
    container: the container whole while it fits the budget, its
    fragments once it does not.  The container is 6 bytes longer than
    the bare envelope a read of one groupcast used to be ordered as, so
    the fragment fence sits 6 bytes lower in payload bytes."""
    daemon = make_daemon()
    daemon.fragmenter = Fragmenter(chunk_size=budget)
    session = attach_member(daemon, "c#0")
    old_fragmenter, old_packer = Fragmenter(chunk_size=budget), Packer(budget=budget)
    header = len(one_frame("c#0", ("g",), b"", DeliveryService.SAFE))
    assert header - len(AppData("c#0", ("g",), b"").encode()) == 6
    sizes = [header, budget - 8, budget - 7, budget - 6, budget - 1, budget, budget + 1,
             2 * budget, 2 * budget + 1, 5 * budget + 3]
    for size in sizes:
        payload = bytes(max(0, size - header))
        container = one_frame("c#0", ("g",), payload, DeliveryService.SAFE)
        submitted = ingest(daemon, session, body_of(["g"], DeliveryService.SAFE, payload))
        expected = _fragment_pack_flush(old_fragmenter, old_packer, container)
        assert submitted == [(piece, DeliveryService.SAFE) for piece in expected]
        assert (len(submitted) > 1) == (len(container) > budget)
    assert daemon.containers_sent == daemon.envelopes_packed == len(sizes)

"""Unit tests for SpreadDaemon's envelope pipeline, without sockets.

The daemon's delivery-side logic (frames containers, fragment reassembly, group
updates, client fan-out) and what it submits for a client read are
exercised directly with stub sessions.
"""

import asyncio

from repro.core.messages import DataMessage, DeliveryService
from repro.runtime import ipc
from repro.runtime.transport import local_ring_addresses
from repro.spread.daemon import SpreadDaemon, _ClientSession
from repro.spread.fragmentation import FRAGMENT_CHUNK
from repro.spread.frames import frames_prefix
from repro.spread.wire import AppData, GroupJoin, GroupLeave, decode_envelope


class _StubWriter:
    def __init__(self):
        self._closing = False

    def is_closing(self):
        return self._closing

    def close(self):
        self._closing = True

    async def wait_closed(self):
        pass


def frames(session):
    """Frames the daemon enqueued for this client.

    Sessions route writes through their ClientSendQueue; with no drain
    task running (no event loop in these unit tests) what was accepted
    stays pending, which is exactly what the fan-out logic produced.
    The queue holds chunks of whole frames; the client sees their
    concatenation, so that is what is taken apart here.
    """
    decoder = ipc.FrameDecoder()
    stream = b"".join(session.queue.pending_frames)
    out = [ipc.pack_frame(opcode, body) for opcode, body in decoder.feed(stream)]
    assert decoder.error is None and decoder.partial == b""
    return out


def make_daemon(pid=0):
    peers = local_ring_addresses(range(2), base_port=47000)
    return SpreadDaemon(pid, peers, f"/tmp/unused-{pid}.sock")


def ordered(payload: bytes, seq=1, pid=1, service=DeliveryService.AGREED):
    return DataMessage(seq=seq, pid=pid, round=1, service=service, payload=payload)


def one_frame(sender, groups, payload, service=DeliveryService.AGREED):
    """The frames container a read of one groupcast is ordered as: the
    sender once, then the frame as the client wrote it."""
    return frames_prefix(sender) + ipc.pack_groupcast(list(groups), service, payload)


def submissions(daemon):
    """What the daemon submits to its ring from now on: ``(payload,
    service)`` each, in order."""
    submitted = []
    daemon.node.submit = lambda payload, service: submitted.append((payload, service))
    return submitted


def deliver(daemon, *messages, config_id):
    """Hand the daemon one delivered run, as its node would."""
    daemon._ordered_delivery(messages, config_id)


def attach_member(daemon, name, groups=()):
    session = _ClientSession(name, _StubWriter())
    daemon._attach(session)
    for group in groups:
        daemon.directory.apply_join(name, group)
    daemon.directory.take_dirty()
    return session


class TestOrderedDeliveryPipeline:
    def test_app_data_fans_out_to_local_members_only(self):
        daemon = make_daemon(pid=0)
        local = attach_member(daemon, "a#0", groups=["g"])
        daemon.directory.apply_join("remote#1", "g")  # lives elsewhere
        bystander = attach_member(daemon, "b#0")  # not in the group
        container = one_frame("sender#1", ("g",), b"payload")
        deliver(daemon, ordered(container), config_id=1)
        assert frames(local) == [ipc.pack_groupcast(["g"], DeliveryService.AGREED, b"payload")]
        assert frames(bystander) == []
        assert daemon.messages_delivered_to_clients == 1

    def test_member_in_two_target_groups_gets_one_copy(self):
        daemon = make_daemon()
        both = attach_member(daemon, "a#0", groups=["g1", "g2"])
        container = one_frame("s#1", ("g1", "g2"), b"x")
        deliver(daemon, ordered(container), config_id=1)
        assert len(frames(both)) == 1

    def test_packed_envelopes_processed_in_order(self):
        daemon = make_daemon()
        member = attach_member(daemon, "a#0", groups=["g"])
        first = ipc.pack_groupcast(["g"], DeliveryService.AGREED, b"1")
        second = ipc.pack_groupcast(["g"], DeliveryService.AGREED, b"2")
        payload = frames_prefix("s#1") + first + second
        deliver(daemon, ordered(payload), config_id=1)
        assert frames(member) == [first, second]

    def test_a_bare_app_data_envelope_is_one_undecodable(self):
        """Every groupcast is ordered in a frames container: the reference
        codec's bare envelope, whole or reassembled, reaches no one."""
        daemon = make_daemon()
        member = attach_member(daemon, "a#0", groups=["g"])
        bare = AppData("s#1", ("g",), b"x").encode()
        pieces = daemon.fragmenter.fragment(AppData("s#1", ("g",), bytes(3000)).encode())
        deliver(daemon, ordered(bare), *(ordered(piece, seq=2) for piece in pieces),
                config_id=1)
        assert frames(member) == []
        assert daemon.envelopes_undecodable == 2

    def test_ordered_join_updates_directory_and_notifies(self):
        daemon = make_daemon()
        member = attach_member(daemon, "a#0")
        deliver(daemon, ordered(GroupJoin("a#0", "g").encode()), config_id=1)
        assert daemon.directory.members("g") == ("a#0",)
        assert len(frames(member)) == 1  # the group view

    def test_ordered_leave_clears_membership(self):
        daemon = make_daemon()
        attach_member(daemon, "a#0", groups=["g"])
        deliver(daemon, ordered(GroupLeave("a#0", "g").encode()), config_id=1)
        assert daemon.directory.members("g") == ()

    def test_fragments_reassemble_across_orderings(self):
        daemon = make_daemon()
        member = attach_member(daemon, "a#0", groups=["g"])
        big = one_frame("s#1", ("g",), bytes(3000))
        pieces = daemon.fragmenter.fragment(big)
        assert len(pieces) > 1
        for index, piece in enumerate(pieces):
            deliver(daemon, ordered(piece, seq=index + 1), config_id=1)
        assert frames(member) == [big[len(frames_prefix("s#1")) :]]

    def test_view_notification_goes_to_members_only(self):
        daemon = make_daemon()
        inside = attach_member(daemon, "in#0", groups=["g"])
        outside = attach_member(daemon, "out#0")
        daemon.directory.take_dirty()
        deliver(daemon, ordered(GroupJoin("late#0", "g").encode()), config_id=1)
        # 'late' has no session (stub only), 'in' gets the view
        assert len(frames(inside)) == 1
        assert frames(outside) == []


    def test_a_header_is_decoded_once_and_outlives_a_view_change(self, monkeypatch):
        """A route miss resolves the names the frame walk decoded: after a
        view change each new header is decoded once, and one decoded
        before the change not at all."""
        daemon = make_daemon()
        member = attach_member(daemon, "a#0", groups=["g1", "g2"])
        deliver(daemon, ordered(one_frame("s#1", ("g1",), b"warm")), config_id=1)
        deliver(daemon, ordered(GroupJoin("b#1", "g2").encode(), seq=2), config_id=1)
        decoded = []
        unpack_groupcast = ipc.unpack_groupcast

        def counting(body):
            decoded.append(bytes(body))
            return unpack_groupcast(body)

        monkeypatch.setattr(ipc, "unpack_groupcast", counting)
        groupcasts = [
            ipc.pack_groupcast(list(groups), DeliveryService.AGREED, b"x")
            for groups in (("g1",), ("g1",), ("g2",), ("g2",), ("g1", "g2"), ("g1",))
        ]
        before = len(frames(member))
        deliver(daemon, ordered(frames_prefix("s#1") + b"".join(groupcasts), seq=3),
                config_id=1)
        assert frames(member)[before:] == groupcasts
        header = {groups: ipc.pack_groupcast(list(groups), DeliveryService.AGREED, b"")[5:]
                  for groups in (("g2",), ("g1", "g2"))}
        assert sorted(decoded) == sorted(header.values())


class TestSubmissionPipeline:
    def test_small_payload_submitted_unfragmented(self):
        daemon = make_daemon()
        session = attach_member(daemon, "a#0")
        submitted = submissions(daemon)
        frame = ipc.pack_groupcast(["g"], DeliveryService.AGREED, b"small")
        daemon._handle_client_read(session, [(ipc.OP_GROUPCAST, frame[ipc.FRAME_HEADER.size :])])
        assert submitted == [(one_frame("a#0", ("g",), b"small"), DeliveryService.AGREED)]

    def test_large_payload_fragmented_on_submit(self):
        daemon = make_daemon()
        session = attach_member(daemon, "a#0")
        submitted = submissions(daemon)
        frame = ipc.pack_groupcast(["g"], DeliveryService.SAFE, bytes(5000))
        daemon._handle_client_read(session, [(ipc.OP_GROUPCAST, frame[ipc.FRAME_HEADER.size :])])
        assert len(submitted) >= 4
        for piece, service in submitted:
            assert service is DeliveryService.SAFE
            assert len(decode_envelope(piece).chunk) <= FRAGMENT_CHUNK
        assert b"".join(decode_envelope(piece).chunk for piece, _ in submitted) == (
            one_frame("a#0", ("g",), bytes(5000), DeliveryService.SAFE)
        )

    def test_a_gone_session_orders_one_leave_per_group(self):
        """A connection that ends leaves each group it joined by one
        ordered leave, in sorted order; applied like any leave, they take
        the member out of every group and leave the others in place."""
        daemon = make_daemon()
        session = attach_member(daemon, "a#0", groups=["g2", "g1"])
        session.joined.update(["g2", "g1"])
        submitted = submissions(daemon)

        async def gone():
            daemon._session_gone(session, ConnectionResetError())
            await asyncio.gather(*daemon._disconnecting)

        asyncio.run(gone())
        leaves = [GroupLeave("a#0", "g1").encode(), GroupLeave("a#0", "g2").encode()]
        assert submitted == [(leave, DeliveryService.AGREED) for leave in leaves]
        peer = make_daemon(pid=1)
        for group in ("g1", "g2"):
            peer.directory.apply_join("a#0", group)
        peer.directory.apply_join("b#1", "g1")
        deliver(peer, *(ordered(leave, seq=seq) for seq, leave in enumerate(leaves, 1)),
                config_id=1)
        assert peer.directory.members("g1") == ("b#1",)
        assert peer.directory.members("g2") == ()

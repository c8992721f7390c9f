"""Client lifecycle edges against real daemons.

Every scenario here is a way a client connection dies (or is reborn)
at an inconvenient moment: the daemon restarts under a connected
client, a client vanishes mid-multicast, a connection half-closes
after the handshake.  The daemon must shed the session cleanly — no
unhandled exceptions, no stale session entries, and (checked via
``asyncio.all_tasks()``) no leaked tasks after a full drain.
"""

import asyncio
import os
import tempfile

import pytest

from repro.core.messages import DeliveryService
from repro.runtime import ipc
from repro.runtime.fleet import Fleet, run_fleet_workload
from repro.runtime.ports import ephemeral_ring_addresses
from repro.spread.client_api import SpreadClient
from repro.spread.daemon import SpreadDaemon
from tests.integration.test_runtime import FAST_TIMEOUTS, wait_until
from tests.unit.test_ipc import next_frame


async def _start_pair(tmp):
    peers = ephemeral_ring_addresses(range(2))
    daemons = [
        SpreadDaemon(
            pid,
            peers,
            os.path.join(tmp, f"d{pid}.sock"),
            timeouts=FAST_TIMEOUTS,
        )
        for pid in range(2)
    ]
    for daemon in daemons:
        await daemon.start()
    assert await wait_until(
        lambda: all(len(d.node.members) == 2 for d in daemons)
    )
    return peers, daemons


def test_reconnect_after_daemon_restart():
    """A client whose daemon dies reconnects to the restarted daemon
    and resumes group traffic."""

    async def scenario():
        with tempfile.TemporaryDirectory() as tmp:
            peers, daemons = await _start_pair(tmp)
            try:
                client = SpreadClient(
                    daemons[0].socket_path, name="w"
                )
                await client.connect()
                await client.join("g")
                await client.wait_for_view("g", 1)

                socket_path = daemons[0].socket_path
                await daemons[0].stop()
                # The survivor sheds the dead daemon from the ring.
                assert await wait_until(
                    lambda: len(daemons[1].node.members) == 1
                )
                # The client's connection is dead: the next interaction
                # with the daemon surfaces a connection error.
                try:
                    await asyncio.wait_for(client.receive(), 2.0)
                    raised = False
                except (ConnectionError, OSError, asyncio.IncompleteReadError,
                        asyncio.TimeoutError):
                    raised = True
                assert raised
                await client.close()

                daemons[0] = SpreadDaemon(
                    0, peers, socket_path, timeouts=FAST_TIMEOUTS
                )
                await daemons[0].start()
                assert await wait_until(
                    lambda: all(len(d.node.members) == 2 for d in daemons)
                )

                reborn = SpreadClient(socket_path, name="w2")
                await reborn.connect()
                await reborn.join("g")
                await reborn.wait_for_view("g", 1)
                reborn.multicast(["g"], b"after-restart")
                (message,) = await asyncio.wait_for(
                    reborn.receive_messages(1), 10
                )
                assert message.payload == b"after-restart"
                await reborn.close()
            finally:
                for daemon in daemons:
                    await daemon.stop()

    asyncio.run(scenario())


def test_disconnect_mid_multicast():
    """A client that aborts its connection right after a burst of
    multicasts must not wedge the daemon; a surviving client still
    receives whatever the daemon had relayed."""

    async def scenario():
        with tempfile.TemporaryDirectory() as tmp:
            peers, daemons = await _start_pair(tmp)
            try:
                noisy = SpreadClient(
                    daemons[0].socket_path, name="noisy"
                )
                steady = SpreadClient(
                    daemons[1].socket_path, name="steady"
                )
                await noisy.connect()
                await steady.connect()
                await steady.join("g")
                await steady.wait_for_view("g", 1)
                for index in range(20):
                    noisy.multicast(["g"], b"burst:%d" % index)
                # Abort, don't close: the frames may still sit in the
                # stream buffers when the connection dies.
                noisy._connection.transport.abort()

                got = await asyncio.wait_for(steady.receive_messages(20), 15)
                assert [m.payload for m in got] == [
                    b"burst:%d" % i for i in range(20)
                ]
                # The noisy session was reaped.
                assert await wait_until(
                    lambda: not any(
                        "noisy" in name for name in daemons[0]._sessions
                    )
                )
                await steady.close()
            finally:
                for daemon in daemons:
                    await daemon.stop()

    asyncio.run(scenario())


MALFORMED_FRAMES = {
    "unknown-opcode": ipc.pack_frame(99, b""),
    "empty-join": ipc.pack_frame(ipc.OP_JOIN, b""),
    "join-not-utf8": ipc.pack_frame(ipc.OP_JOIN, b"\x00\x02\xff\xfe"),
    "groupcast-truncated": ipc.pack_frame(ipc.OP_GROUPCAST, b"\x04\x02\x00\x01g\x00"),
    "groupcast-name-overruns": ipc.pack_frame(ipc.OP_GROUPCAST, b"\x04\x01\x00\x09g"),
    "groupcast-not-utf8": ipc.pack_frame(ipc.OP_GROUPCAST, b"\x04\x01\x00\x01\xffpayload"),
    "groupcast-no-such-service": ipc.pack_frame(ipc.OP_GROUPCAST, b"\x09\x01\x00\x01gpayload"),
    "frame-too-large": ipc.FRAME_HEADER.pack(ipc.OP_GROUPCAST, ipc.MAX_FRAME + 1),
}


@pytest.mark.parametrize("garbage", MALFORMED_FRAMES.values(), ids=MALFORMED_FRAMES.keys())
def test_malformed_frame_disconnects_that_client_by_rule(garbage):
    """Hello, a join, then a frame that does not decode: that client is
    disconnected like a voluntary leaver (session gone, its ordered leave
    seen by the others, counted) with nothing thrown at the event loop,
    and another client of the same daemon keeps completing its loop."""

    async def scenario():
        with tempfile.TemporaryDirectory() as tmp:
            peers, daemons = await _start_pair(tmp)
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            try:
                steady = SpreadClient(daemons[0].socket_path, name="steady")
                await steady.connect()
                await steady.join("g")
                raw = await ipc.UnixEndpoint(daemons[0].socket_path).open()
                raw.write(ipc.pack_hello("bad"))
                opcode, _body = await next_frame(raw)
                assert opcode == ipc.OP_WELCOME
                raw.write(ipc.pack_group_op(ipc.OP_JOIN, "g"))
                await steady.wait_for_view("g", 2)

                async def closed_loop(first, count):
                    for index in range(first, first + count):
                        steady.multicast(["g"], b"%d" % index)
                        (echo,) = await asyncio.wait_for(steady.receive_messages(1), 5.0)
                        assert echo.payload == b"%d" % index

                await closed_loop(0, 5)
                raw.write(garbage)
                with pytest.raises(asyncio.IncompleteReadError):
                    while True:  # views and echoes, then the daemon's close
                        await asyncio.wait_for(next_frame(raw), 5.0)
                assert daemons[0].clients_dropped_malformed == 1
                assert not any("bad" in name for name in daemons[0]._sessions)
                await steady.wait_for_view("g", 1)
                await closed_loop(5, 20)
                assert daemons[0].clients_dropped_malformed == 1
                assert daemons[1].clients_dropped_malformed == 0
                assert loop_errors == []
                raw.close()
                await steady.close()
            finally:
                for daemon in daemons:
                    await daemon.stop()

    asyncio.run(scenario())


def test_multicasts_ahead_of_a_malformed_frame_are_delivered_wherever_the_read_cut():
    """A valid groupcast and a malformed header in *one* write: the
    groupcast is ordered and reaches the other client, and only then is
    the sender disconnected by rule and counted once — what the two
    frames do must not depend on whether the kernel delivered them in
    one read or two (PROTOCOL.md §15, "malformed frames")."""

    async def scenario():
        with tempfile.TemporaryDirectory() as tmp:
            peers, daemons = await _start_pair(tmp)
            try:
                steady = SpreadClient(daemons[0].socket_path, name="steady")
                await steady.connect()
                await steady.join("g")
                raw = await ipc.UnixEndpoint(daemons[0].socket_path).open()
                raw.write(ipc.pack_hello("bad"))
                opcode, _body = await next_frame(raw)
                assert opcode == ipc.OP_WELCOME
                raw.write(ipc.pack_group_op(ipc.OP_JOIN, "g"))
                await steady.wait_for_view("g", 2)
                raw.write(
                    ipc.pack_groupcast(["g"], DeliveryService.AGREED, b"last words")
                    + MALFORMED_FRAMES["frame-too-large"]
                )
                (message,) = await asyncio.wait_for(steady.receive_messages(1), 5.0)
                assert message.payload == b"last words"
                await steady.wait_for_view("g", 1)  # the sender's ordered leave
                assert daemons[0].clients_dropped_malformed == 1
                assert not any("bad" in name for name in daemons[0]._sessions)
                raw.close()
                await steady.close()
            finally:
                for daemon in daemons:
                    await daemon.stop()

    asyncio.run(scenario())


def test_half_closed_connection_is_reaped():
    """A client that sends its hello then half-closes (EOF, reader kept
    open) must be cleaned up like any other disconnect."""

    async def scenario():
        with tempfile.TemporaryDirectory() as tmp:
            peers, daemons = await _start_pair(tmp)
            try:
                raw = await ipc.UnixEndpoint(daemons[0].socket_path).open()
                raw.write(ipc.pack_hello("half"))
                opcode, body = await next_frame(raw)
                assert opcode == ipc.OP_WELCOME
                assert await wait_until(
                    lambda: any(
                        "half" in name for name in daemons[0]._sessions
                    )
                )
                raw.transport.write_eof()
                assert await wait_until(
                    lambda: not any(
                        "half" in name for name in daemons[0]._sessions
                    )
                )
                raw.close()
                await raw.wait_closed()
            finally:
                for daemon in daemons:
                    await daemon.stop()

    asyncio.run(scenario())


def test_stop_closes_a_connection_that_never_said_hello():
    """A peer that connected and sent nothing is not a session yet, but
    it is the daemon's: ``stop()`` closes it, so it reads EOF instead of
    waiting forever for a welcome."""

    async def scenario():
        with tempfile.TemporaryDirectory() as tmp:
            peers, daemons = await _start_pair(tmp)
            raw = None
            try:
                raw = await ipc.UnixEndpoint(daemons[0].socket_path).open()
                await asyncio.sleep(0.05)  # the daemon accepts it
                await daemons[0].stop()
                with pytest.raises(asyncio.IncompleteReadError):
                    await asyncio.wait_for(next_frame(raw), 2.0)
            finally:
                if raw is not None:
                    raw.close()
                    await raw.wait_closed()
                for daemon in daemons:
                    await daemon.stop()

    asyncio.run(scenario())


def test_fleet_drain_leaves_no_tasks_behind():
    """A full fleet lifecycle — start, workload with a crash/restart,
    drain — returns the loop to its pre-fleet task census."""

    async def scenario():
        await asyncio.sleep(0)
        before = len(asyncio.all_tasks())
        fleet = Fleet(num_daemons=3)
        await fleet.start()
        report = await run_fleet_workload(
            fleet,
            num_clients=6,
            duration=1.2,
            crash_pid=2,
            crash_after=0.3,
            restart_after=0.3,
        )
        await fleet.drain_and_stop()
        assert report["messages_acked"] == report["messages_sent"]
        # Let cancelled/finishing tasks unwind before the census.
        for _ in range(10):
            await asyncio.sleep(0.01)
        after = len(asyncio.all_tasks())
        assert after == before, (
            f"leaked {after - before} task(s): "
            f"{[t.get_name() for t in asyncio.all_tasks()]}"
        )

    asyncio.run(scenario())

"""The loopback fleet: many concurrent clients against real daemons.

The acceptance bar for the fleet launcher: ≥50 concurrent clients on a
3-daemon ring with bounded memory (no unbounded send queues), clean
drain (no leaked tasks), and closed-loop completeness (every sent
message comes back through the total order).
"""

import asyncio
import socket

import pytest

from repro.membership.controller import TIMER_TOKEN_LOSS
from repro.runtime.fleet import Fleet, FleetError, run_fleet_workload
from repro.runtime.node import LoopTimer
from tests.integration.test_runtime import wait_until


def test_fleet_sustains_fifty_concurrent_clients():
    async def scenario():
        await asyncio.sleep(0)
        before = len(asyncio.all_tasks())
        fleet = Fleet(num_daemons=3)
        await fleet.start()
        report = await run_fleet_workload(fleet, num_clients=52, duration=1.5)
        await fleet.drain_and_stop()

        assert report["clients"] == 52
        assert report["messages_acked"] == report["messages_sent"]
        assert report["messages_sent"] > 0
        assert report["msgs_per_sec"] > 0
        counters = report["counters"]
        assert counters["decode_errors"] == 0
        assert counters["clients_dropped_slow"] == 0
        assert counters["datagrams_send_dropped"] == 0
        # Latency percentiles are populated and ordered.
        assert 0 < report["latency_p50_ms"] <= report["latency_p99_ms"]

        for _ in range(10):
            await asyncio.sleep(0.01)
        after = len(asyncio.all_tasks())
        assert after == before, (
            f"leaked {after - before} task(s): "
            f"{[t.get_name() for t in asyncio.all_tasks()]}"
        )

    asyncio.run(scenario())


def test_fleet_crash_restart_reconnects_and_stays_complete():
    async def scenario():
        fleet = Fleet(num_daemons=3)
        await fleet.start()
        report = await run_fleet_workload(
            fleet,
            num_clients=12,
            duration=1.5,
            crash_pid=2,
            crash_after=0.4,
            restart_after=0.4,
        )
        await fleet.drain_and_stop()
        # Clients parked on the crashed daemon reconnected elsewhere…
        assert report["reconnects"] > 0
        # …and the closed loop still completed for every live client.
        assert report["messages_acked"] == report["messages_sent"]
        assert report["counters"]["decode_errors"] == 0

    asyncio.run(scenario())


def test_wait_for_ring_wakes_on_the_configuration_change_and_times_out():
    """Ring waits are driven by the nodes' configuration deliveries, not
    by a polling interval; the timeout and its message are unchanged."""

    async def scenario():
        fleet = Fleet(num_daemons=3)
        await fleet.start()
        try:
            await fleet.crash_daemon(2)
            # The survivors have not noticed yet: their ring is still (0, 1, 2).
            with pytest.raises(FleetError, match=r"ring did not form within 0.001s: \{0: "):
                await fleet.wait_for_ring(timeout=0.001)
            sleeps = []
            real_sleep = asyncio.sleep

            async def recording_sleep(delay, *args):
                sleeps.append(delay)
                return await real_sleep(delay, *args)

            asyncio.sleep = recording_sleep
            try:
                await fleet.wait_for_ring(timeout=10.0)
                await fleet.restart_daemon(2)
            finally:
                asyncio.sleep = real_sleep
            assert sleeps == []  # nothing polled
            assert all(
                tuple(daemon.node.members) == (0, 1, 2)
                for daemon in fleet.daemons.values()
            )
        finally:
            await fleet.drain_and_stop()

    asyncio.run(scenario())


def _timer_name(callback, args):
    """The executor timer a loop callback arms: ``call_later(delay,
    expire, name)`` carries the name in ``args``, a ``LoopTimer``'s
    ``_fire`` on the timer itself."""
    if args:
        return args[0]
    timer = getattr(callback, "__self__", None)
    return timer.args[0] if isinstance(timer, LoopTimer) else None


def test_an_idle_ring_re_arms_token_loss_without_arming_a_loop_handle_per_visit():
    """Every token visit re-arms the token-loss timer later.  That move
    is a field write: the loop gets a new handle only when an old one
    comes due, once per timeout period, not once per visit."""

    async def scenario():
        fleet = Fleet(num_daemons=3)
        await fleet.start()
        loop = asyncio.get_running_loop()
        armed = []
        visits = []
        call_at = loop.call_at

        def counting_call_at(when, callback, *args, **kwargs):
            if _timer_name(callback, args) == TIMER_TOKEN_LOSS:
                armed.append(when)
            return call_at(when, callback, *args, **kwargs)

        for daemon in fleet.daemons.values():
            node = daemon.node
            handle_token = node._handle_token

            def counting_handle_token(datagram, handle_token=handle_token):
                visits.append(None)
                handle_token(datagram)

            node._handle_token = counting_handle_token
        loop.call_at = counting_call_at
        try:
            await asyncio.sleep(1.0)
        finally:
            del loop.call_at
            await fleet.drain_and_stop()
        assert len(visits) > 300, len(visits)  # the token went round
        assert len(armed) / len(visits) <= 0.01, (len(armed), len(visits))

    asyncio.run(scenario())


def test_counters_keep_what_a_crashed_daemon_counted():
    """A crash does not forget what the crashed daemon counted: a junk
    datagram on its data port is still a decode error in ``counters()``
    after the daemon is crashed and restarted, so ``repro fleet run
    --crash`` fails on it as ``repro conformance realtime`` does."""

    async def scenario():
        fleet = Fleet(num_daemons=3)
        await fleet.start()
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            address = fleet.addresses[2]
            node = fleet.daemons[2].node
            sender.sendto(b"\xffjunk", (address.host, address.data_port))
            assert await wait_until(lambda: node.decode_errors == 1, timeout=5.0)
            await fleet.crash_daemon(2)
            await fleet.restart_daemon(2)
            assert fleet.daemons[2].node.decode_errors == 0  # counts from zero
            assert fleet.counters()["decode_errors"] >= 1
        finally:
            sender.close()
            await fleet.drain_and_stop()

    asyncio.run(scenario())


def test_slow_client_is_dropped_not_buffered_forever():
    """A client that never reads must be disconnected once it falls a
    window behind, not buffered without bound."""

    async def scenario():
        # A tiny window so the drop triggers with modest traffic.
        fleet = Fleet(num_daemons=1, client_window_bytes=4096)
        await fleet.start()
        try:
            deaf = await fleet.connect_client(name="deaf")
            await deaf.join("g")
            await deaf.wait_for_view("g", 1)

            daemon = fleet.daemons[0]
            (deaf_queue,) = [
                session.queue
                for name, session in daemon._sessions.items()
                if "deaf" in name
            ]
            blaster = await fleet.connect_client(name="blaster")
            payload = b"x" * 1024
            for _ in range(600):
                blaster.multicast(["g"], payload)
                await asyncio.sleep(0)

            dropped = False
            deadline = asyncio.get_running_loop().time() + 10
            while asyncio.get_running_loop().time() < deadline:
                if daemon.clients_dropped_slow > 0:
                    dropped = True
                    break
                await asyncio.sleep(0.05)
            assert dropped, "slow client was never dropped"
            # Bounded, not buffered: every byte the daemon held for the
            # deaf client (queued frames and what its socket had not
            # taken) was counted against its window, which never
            # overflowed; the drop released all of it.
            assert deaf_queue.dropped_slow
            assert 0 < deaf_queue.window.peak_queue_bytes <= 4096
            assert deaf_queue.window.queued_bytes == 0
            assert deaf_queue.writer.transport.get_write_buffer_size() == 0
            # The daemon survives and still serves the other client.
            assert daemon.node.state == "operational"
        finally:
            await fleet.drain_and_stop()

    asyncio.run(scenario())


def test_workload_gives_up_on_a_silent_fleet_at_one_deadline(monkeypatch):
    """No per-receive timeout: the run as a whole has a deadline, and a
    fleet that stops answering ends it with ``acked < sent``."""
    from repro.runtime import fleet as fleet_module

    class SilentClient:
        async def join(self, group):
            pass

        async def wait_for_view(self, group, size):
            pass

        def multicast(self, groups, payload):
            pass

        async def receive(self):
            await asyncio.Event().wait()

    class SilentFleet:
        num_daemons = 1

        async def connect_client(self, name):
            return SilentClient()

        def counters(self):
            return {}

    monkeypatch.setattr(fleet_module, "SILENT_GRACE", 0.2)
    report = asyncio.run(run_fleet_workload(SilentFleet(), num_clients=2, duration=0.1))
    assert report["messages_sent"] == 2 and report["messages_acked"] == 0
    assert 0.3 <= report["duration_s"] < 3.0


def test_default_fleet_coalesces_a_visit_and_keeps_one_order():
    """Coalescing is live on the default fleet (no config anywhere): with
    16 messages in flight a token visit's messages share datagrams —
    counted per client message, whether they share a datagram as batch
    items or as items of one packed container — and every client still
    sees the one total order."""
    clients_n, in_flight, per_client = 4, 4, 150

    async def scenario():
        fleet = Fleet(num_daemons=3)
        await fleet.start()
        try:
            clients = [
                await fleet.connect_client(name=f"c{index}")
                for index in range(clients_n)
            ]
            for client in clients:
                await client.join("batch")
            for client in clients:
                await client.wait_for_view("batch", clients_n)
            before = fleet.counters()
            orders = [[] for _ in clients]

            async def pump(me):
                client, order = clients[me], orders[me]
                mine = b"%d:" % me
                sent = 0

                def send():
                    nonlocal sent
                    client.multicast(["batch"], mine + b"%d" % sent)
                    sent += 1

                for _ in range(in_flight):
                    send()
                while len(order) < clients_n * per_client:
                    event = await client.receive()
                    if not hasattr(event, "payload"):
                        continue  # group view change
                    order.append(bytes(event.payload))
                    # Closed loop: my echo releases my next message.
                    if event.payload.startswith(mine) and sent < per_client:
                        send()

            await asyncio.wait_for(
                asyncio.gather(*(pump(me) for me in range(clients_n))), 30
            )
            counters = fleet.counters()
        finally:
            await fleet.drain_and_stop()
        assert orders[0] == orders[1] == orders[2] == orders[3]
        assert len(set(orders[0])) == clients_n * per_client
        # Alone in its datagram, a message costs two (one per peer) and a
        # share of the token's; 0.58 measured, with or without packing.
        datagrams = counters["datagrams_sent"] - before["datagrams_sent"]
        assert datagrams / (clients_n * per_client) < 0.65
        assert counters["datagrams_send_dropped"] == 0
        assert counters["decode_errors"] == 0

    asyncio.run(scenario())


def test_pipelined_fleet_packs_and_every_message_is_acked():
    """Eight clients with 32 multicasts of 1 KiB in flight each: a read
    of a client's socket holds several groupcasts, so the daemons pack
    them (PROTOCOL.md §15, "packing").  A container is one message in the
    flow-control windows, so a visit carries up to eight times the bytes
    (§9.1); every message is still acked, and nothing is dropped on the
    way — not a datagram the kernel refused, not a client."""

    async def scenario():
        fleet = Fleet(num_daemons=3)
        await fleet.start()
        try:
            return await run_fleet_workload(
                fleet, num_clients=8, duration=1.0, payload_size=1024, pipeline=32
            )
        finally:
            await fleet.drain_and_stop()

    report = asyncio.run(scenario())
    counters = report["counters"]
    assert report["messages_sent"] > 0
    assert report["messages_acked"] == report["messages_sent"]
    assert counters["decode_errors"] == 0
    assert counters["clients_dropped_slow"] == 0
    assert counters["datagrams_send_dropped"] == 0
    assert counters["envelopes_undecodable"] == 0
    assert counters["envelopes_packed"] > counters["containers_sent"] > 0

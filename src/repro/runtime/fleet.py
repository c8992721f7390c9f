"""Loopback daemon fleets: N Spread daemons + M concurrent clients.

The paper validates on a real deployment — daemons exchanging UDP
datagrams, clients attached over IPC.  :class:`Fleet` stands up that
shape on loopback: N :class:`~repro.spread.daemon.SpreadDaemon` rings
over kernel-assigned UDP ports (no hard-coded bases, any number of
fleets coexist), unix client sockets in a private working directory,
client connection lifecycle management (connect, round-robin placement,
reconnect after a daemon restart), crash/restart of individual daemons,
and graceful drain.  Client fan-out rides the daemons' bounded send
queues, so slow clients are flow-blocked/disconnected, never buffered
without limit.

:func:`run_fleet_workload` drives a closed-loop workload over a fleet —
each client multicasts to a shared group and paces itself on the
ordered return of its own messages — and reports throughput, latency
percentiles, and the backpressure/leak counters the acceptance tests
and ``repro fleet run`` gate on.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.membership.params import MembershipTimeouts
from repro.runtime.backpressure import DEFAULT_CLIENT_WINDOW_BYTES
from repro.runtime.ipc import UnixEndpoint
from repro.runtime.ports import ephemeral_ring_addresses
from repro.runtime.transport import PeerAddress
from repro.spread.client_api import SpreadClient
from repro.spread.daemon import SpreadDaemon
from repro.util.errors import ConfigurationError
from repro.util.stats import percentile

#: Membership timeouts for loopback fleets: tight enough that a 3-daemon
#: ring forms in well under a second and reforms quickly after a crash,
#: loose enough not to flake under CI scheduling jitter.
FLEET_TIMEOUTS = MembershipTimeouts(
    token_loss=0.25,
    join_interval=0.05,
    consensus_timeout=0.2,
    commit_timeout=0.5,
    recovery_status_interval=0.05,
    recovery_timeout=2.0,
    beacon_interval=0.2,
)


class FleetError(RuntimeError):
    """A fleet failed to reach the requested state (form, reform, drain)."""


class Fleet:
    """N loopback Spread daemons with managed client connections."""

    def __init__(
        self,
        num_daemons: int = 3,
        accelerated: bool = True,
        workdir: Optional[str] = None,
        timeouts: Optional[MembershipTimeouts] = None,
        client_window_bytes: int = DEFAULT_CLIENT_WINDOW_BYTES,
        **daemon_kwargs,
    ) -> None:
        if num_daemons < 1:
            raise ConfigurationError(f"a fleet needs at least one daemon, got {num_daemons}")
        self.num_daemons = num_daemons
        self.accelerated = accelerated
        self.timeouts = timeouts or FLEET_TIMEOUTS
        self.client_window_bytes = client_window_bytes
        self._daemon_kwargs = daemon_kwargs
        self._own_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="repro-fleet-")
        self.addresses: Dict[int, PeerAddress] = {}
        self.daemons: Dict[int, SpreadDaemon] = {}
        self.clients: List[SpreadClient] = []
        self._next_placement = 0
        self._started = False
        #: Counters of every daemon crashed so far, summed at the crash: a
        #: restarted daemon counts from zero.
        self._retired: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        #: Set whenever any daemon's node installs a configuration.
        self._ring_changed: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Daemon lifecycle
    # ------------------------------------------------------------------

    def socket_path(self, pid: int) -> str:
        return os.path.join(self.workdir, f"daemon-{pid}.sock")

    def _make_daemon(self, pid: int) -> SpreadDaemon:
        daemon = SpreadDaemon(
            pid,
            self.addresses,
            self.socket_path(pid),
            accelerated=self.accelerated,
            timeouts=self.timeouts,
            client_window_bytes=self.client_window_bytes,
            **self._daemon_kwargs,
        )
        daemon_on_config = daemon.node.on_config

        def on_config(configuration) -> None:
            daemon_on_config(configuration)
            self._ring_changed.set()

        daemon.node.on_config = on_config
        return daemon

    async def start(self, form_timeout: float = 10.0) -> None:
        """Boot every daemon and wait for a single full ring to form."""
        self._ring_changed = asyncio.Event()
        self.addresses = ephemeral_ring_addresses(range(self.num_daemons))
        for pid in range(self.num_daemons):
            self.daemons[pid] = self._make_daemon(pid)
        for daemon in self.daemons.values():
            await daemon.start()
        self._started = True
        await self.wait_for_ring(timeout=form_timeout)

    async def wait_for_ring(
        self, timeout: float = 10.0, pids: Optional[Sequence[int]] = None
    ) -> None:
        """Wait until the given daemons agree on one operational ring.

        A node becomes operational on a ring in the step that installs
        the ring's configuration, so the condition is re-checked when a
        node reports one — no polling interval sits in ``setup_s``.
        """
        want = tuple(sorted(pids if pids is not None else self.daemons))
        deadline = time.monotonic() + timeout
        while True:
            self._ring_changed.clear()
            nodes = [self.daemons[pid].node for pid in want]
            if all(
                node.state == "operational" and tuple(node.members) == want
                for node in nodes
            ):
                return
            try:
                await asyncio.wait_for(
                    self._ring_changed.wait(), deadline - time.monotonic()
                )
            except asyncio.TimeoutError:
                states = {pid: self.daemons[pid].node.state for pid in want}
                raise FleetError(
                    f"ring did not form within {timeout}s: {states}"
                ) from None

    async def crash_daemon(self, pid: int) -> None:
        """Fail-stop one daemon; its clients see their connection die."""
        daemon = self.daemons.pop(pid)
        await daemon.stop()
        for name, value in _daemon_counters(daemon).items():
            self._retired[name] += value

    async def restart_daemon(self, pid: int, form_timeout: float = 10.0) -> None:
        """Bring a crashed daemon back on its original addresses."""
        if pid in self.daemons:
            raise FleetError(f"daemon {pid} is already running")
        daemon = self._make_daemon(pid)
        self.daemons[pid] = daemon
        await daemon.start()
        await self.wait_for_ring(timeout=form_timeout)

    # ------------------------------------------------------------------
    # Client lifecycle
    # ------------------------------------------------------------------

    def live_pids(self) -> List[int]:
        return sorted(self.daemons)

    async def connect_client(
        self, name: str = "", pid: Optional[int] = None
    ) -> SpreadClient:
        """Connect one client, round-robin across live daemons by default."""
        if not self._started:
            raise FleetError("fleet is not started")
        live = self.live_pids()
        if pid is None:
            pid = live[self._next_placement % len(live)]
            self._next_placement += 1
        elif pid not in self.daemons:
            raise FleetError(f"daemon {pid} is not running")
        client = SpreadClient(
            endpoint=UnixEndpoint(path=self.socket_path(pid)), name=name
        )
        await client.connect()
        self.clients.append(client)
        return client

    # ------------------------------------------------------------------
    # Shutdown and observability
    # ------------------------------------------------------------------

    async def drain_and_stop(self) -> None:
        """Graceful drain: clients disconnect first, then daemons stop."""
        for client in list(self.clients):
            try:
                await client.close()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self.clients.clear()
        for pid in sorted(self.daemons):
            await self.daemons[pid].stop()
        self.daemons.clear()
        self._started = False
        if self._own_workdir:
            try:
                for entry in os.listdir(self.workdir):
                    os.unlink(os.path.join(self.workdir, entry))
                os.rmdir(self.workdir)
            except OSError:
                pass

    def counters(self) -> Dict[str, int]:
        """Fleet-wide health counters (backpressure, codec, batching,
        packing), crashed daemons' included."""
        totals = dict(self._retired)
        for daemon in self.daemons.values():
            for name, value in _daemon_counters(daemon).items():
                totals[name] += value
        return totals


#: What :meth:`Fleet.counters` sums over the daemons.
COUNTERS = (
    "messages_delivered_to_clients",
    "client_writes",
    "clients_dropped_slow",
    "clients_dropped_malformed",
    "envelopes_undecodable",
    "decode_errors",
    "batches_sent",
    "batched_messages",
    "datagrams_sent",
    "datagrams_send_dropped",
    "containers_sent",
    "envelopes_packed",
    "messages_fragmented",
)


def _daemon_counters(daemon: SpreadDaemon) -> Dict[str, int]:
    node = daemon.node
    return {
        "messages_delivered_to_clients": daemon.messages_delivered_to_clients,
        "client_writes": daemon.client_writes,
        "clients_dropped_slow": daemon.clients_dropped_slow,
        "clients_dropped_malformed": daemon.clients_dropped_malformed,
        "envelopes_undecodable": daemon.envelopes_undecodable,
        "decode_errors": node.decode_errors,
        "batches_sent": node.batches_sent,
        "batched_messages": node.batched_messages,
        "datagrams_sent": node.transport.datagrams_sent,
        "datagrams_send_dropped": node.transport.datagrams_send_dropped,
        "containers_sent": daemon.containers_sent,
        "envelopes_packed": daemon.envelopes_packed,
        "messages_fragmented": daemon.fragmenter.messages_fragmented,
    }


# ----------------------------------------------------------------------
# Closed-loop workload
# ----------------------------------------------------------------------


@dataclass
class _ClientLoopState:
    """One workload client: its connection and in-flight bookkeeping."""

    index: int
    client: SpreadClient
    sent: int = 0
    acked: int = 0
    received_total: int = 0
    latencies: List[float] = field(default_factory=list)
    send_times: Dict[int, float] = field(default_factory=dict)
    reconnects: int = 0


#: How long past its duration a workload run waits for outstanding
#: echoes before it gives up on a fleet that has gone silent.
SILENT_GRACE = 5.0
#: Ring re-formation allowance after the workload's daemon restart.
RESTART_FORM_TIMEOUT = 15.0


async def run_fleet_workload(
    fleet: Fleet,
    num_clients: int,
    duration: float = 2.0,
    payload_size: int = 64,
    group: str = "fleet",
    pipeline: int = 1,
    crash_pid: Optional[int] = None,
    crash_after: float = 0.5,
    restart_after: float = 0.5,
) -> Dict[str, object]:
    """Drive a closed-loop workload and report throughput/latency/health.

    Each client joins ``group`` and keeps ``pipeline`` multicasts in
    flight, sending the next only when the ordered echo of its own
    previous message arrives — closed-loop load, so the offered rate
    adapts to what the ring sustains instead of overrunning it.  With
    ``crash_pid`` set, that daemon is crashed ``crash_after`` seconds in
    and restarted ``restart_after`` seconds later; its clients reconnect
    to a surviving daemon and resume (connection lifecycle under fire).

    One deadline bounds the whole run — the duration, the crash/restart
    budget and :data:`SILENT_GRACE` — rather than a timeout around every
    receive, which would put the driver's own timer churn into the
    numbers it reports.  A fleet that goes silent ends the run at the
    deadline with ``messages_acked < messages_sent``.  A run that could
    send nothing (no client, or none in flight) raises
    :class:`~repro.util.errors.ConfigurationError`.
    """
    if num_clients < 1 or pipeline < 1:
        raise ConfigurationError(
            f"a fleet workload needs at least one client and one message in "
            f"flight, got {num_clients} client(s) x pipeline {pipeline}"
        )
    states: List[_ClientLoopState] = []
    for index in range(num_clients):
        client = await fleet.connect_client(name=f"w{index}")
        states.append(_ClientLoopState(index=index, client=client))
    for state in states:
        await state.client.join(group)
    # Every client must observe the full membership before the clock
    # starts, or early multicasts fan out to a partial group.
    for state in states:
        await state.client.wait_for_view(group, num_clients)

    pad = b"x" * max(0, payload_size - 24)
    stop_at = time.monotonic() + duration

    async def pump(state: _ClientLoopState) -> None:
        client = state.client
        marker = f"w{state.index}:".encode()

        def fire(now: float) -> None:
            payload = marker + str(state.sent).encode() + b":" + pad
            client.multicast([group], payload)
            state.send_times[state.sent] = now
            state.sent += 1

        for _ in range(pipeline):
            fire(time.monotonic())
        while True:
            now = time.monotonic()
            if now >= stop_at and state.acked >= state.sent:
                return
            try:
                message = await client.receive()
            except (
                asyncio.IncompleteReadError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                # Our daemon died (or dropped us): reconnect to a live
                # one and resume the loop.  In-flight messages may or
                # may not have been ordered; closed-loop restarts them.
                if time.monotonic() >= stop_at or not fleet.live_pids():
                    return
                if client in fleet.clients:
                    fleet.clients.remove(client)
                try:
                    await client.close()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
                client = await fleet.connect_client(name=f"w{state.index}r")
                state.client = client
                state.reconnects += 1
                await client.join(group)
                state.send_times.clear()
                state.acked = state.sent
                if time.monotonic() < stop_at:
                    for _ in range(pipeline):
                        fire(time.monotonic())
                continue
            if not hasattr(message, "payload"):
                continue  # group view change
            state.received_total += 1
            if message.payload.startswith(marker):
                seq = int(message.payload.split(b":", 2)[1])
                sent_at = state.send_times.pop(seq, None)
                now = time.monotonic()
                if sent_at is not None:
                    state.latencies.append(now - sent_at)
                state.acked += 1
                if now < stop_at:
                    fire(now)
                elif state.acked >= state.sent:
                    return

    async def chaos() -> None:
        if crash_pid is None:
            return
        await asyncio.sleep(crash_after)
        await fleet.crash_daemon(crash_pid)
        await asyncio.sleep(restart_after)
        await fleet.restart_daemon(crash_pid, form_timeout=RESTART_FORM_TIMEOUT)

    budget = duration + SILENT_GRACE
    if crash_pid is not None:
        budget += crash_after + restart_after + RESTART_FORM_TIMEOUT
    started = time.monotonic()
    chaos_task = asyncio.ensure_future(chaos())
    try:
        await asyncio.wait_for(
            asyncio.gather(*(pump(state) for state in states)), budget
        )
    except asyncio.TimeoutError:
        pass  # silent fleet: the report shows acked < sent
    await chaos_task
    elapsed = time.monotonic() - started

    latencies = [lat for state in states for lat in state.latencies]
    total_sent = sum(state.sent for state in states)
    total_acked = sum(state.acked for state in states)
    total_received = sum(state.received_total for state in states)
    counters = fleet.counters()
    return {
        "clients": num_clients,
        "daemons": fleet.num_daemons,
        "duration_s": round(elapsed, 4),
        "messages_sent": total_sent,
        "messages_acked": total_acked,
        "messages_received": total_received,
        "msgs_per_sec": round(total_acked / elapsed, 1) if elapsed > 0 else 0.0,
        # A run that acked nothing has no latency: 0, not an error.
        "latency_p50_ms": round(percentile(latencies, 0.50) * 1e3, 3) if latencies else 0.0,
        "latency_p99_ms": round(percentile(latencies, 0.99) * 1e3, 3) if latencies else 0.0,
        "reconnects": sum(state.reconnects for state in states),
        "counters": counters,
    }

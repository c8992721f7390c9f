"""Sim driver for membership-enabled hosts.

Where :class:`~repro.sim.driver.ProtocolHost` runs a bare ordering engine
(the paper's normal-case benchmarks), :class:`MembershipHost` runs a full
:class:`~repro.membership.controller.MembershipController`: it executes
control sends and timers, feeds every delivery into an
:class:`~repro.evs.checker.EvsChecker` trace, and survives crashes,
partitions, and merges.  Used by the integration tests and the fault
examples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.core.executor import EffectExecutor
from repro.core.messages import DeliveryService
from repro.evs.checker import EvsChecker
from repro.evs.events import ConfigDelivery, MessageDelivery
from repro.membership.controller import MembershipController
from repro.membership.messages import RecoveredMessage
from repro.membership.params import MembershipTimeouts
from repro.net.fragment import CoalescedDatagram, pack_run
from repro.net.host import SimHost
from repro.net.packet import Frame, PortKind
from repro.net.fabric import FabricTopology
from repro.sim.driver import new_reassembler
from repro.sim.profiles import ImplementationProfile
from repro.util.errors import FaultError

if TYPE_CHECKING:
    from repro.obs.observer import ProtocolObserver

#: CPU cost charged for handling one membership control message.
_CONTROL_CPU = 3e-6

# Hoisted enum member for the per-visit token send.
_TOKEN = PortKind.TOKEN


class DeliveryTap:
    """Optional per-delivery callback surface for a membership host.

    Where the :class:`~repro.evs.checker.EvsChecker` records abstract
    ``(seq, sender)`` trace events, a tap sees the *whole* delivered
    message — payload included — interleaved with configuration changes,
    in exact delivery order.  The conformance oracle
    (:mod:`repro.conformance`) uses this to recover application-level
    payloads (which may be packed or fragmented by the Spread toolkit
    layers) without touching checker semantics.  Every hook is a no-op;
    subclass and override.
    """

    def on_deliver_batch(self, pid, messages, config_id, origin_ring) -> None:
        """``pid`` delivered an in-order run of messages (a tuple of
        ``DataMessage``; a run of one is a 1-tuple) under one
        configuration."""

    def on_config(self, pid, configuration) -> None:
        """``pid`` installed ``configuration``."""

    def on_restart(self, pid) -> None:
        """``pid``'s crashed process was restarted with empty state."""


class MembershipHost:
    """One server running the full membership + ordering stack.

    The host is the sim backend of the shared
    :class:`~repro.core.executor.EffectExecutor` plus its own receive
    loop.  CPU pricing is this host's own: receiving costs CPU, sending
    and delivering happen inside the task that caused them.
    """

    def __init__(
        self,
        host: SimHost,
        controller: MembershipController,
        profile: ImplementationProfile,
        checker: Optional[EvsChecker] = None,
        tap: Optional[DeliveryTap] = None,
    ) -> None:
        self.host = host
        self.controller = controller
        self.profile = profile
        self.checker = checker
        self.tap = tap
        self.delivered: List[object] = []
        self.configurations: List[object] = []
        self.reassembler = new_reassembler(host)
        # The sockets' frame deques and the NIC are stable for the host's
        # lifetime (crash/clear empty them in place), as in ProtocolHost.
        self._token_socket = host.token_socket
        self._data_socket = host.data_socket
        self._token_frames = host.token_socket._frames
        self._data_frames = host.data_socket._frames
        self._nic_send = host.nic.send
        #: Backend ``schedule`` / ``reschedule``: timers are simulator
        #: events, and a live one moves in place.
        self.schedule = host.sim.schedule
        self.reschedule = host.sim.reschedule
        self._effects = EffectExecutor(
            self, controller.protocol_config.messages_per_datagram
        )
        self._paused = False
        #: Latched on crash and never cleared: the *incarnation* is dead.
        #: The SimHost may be recovered and reused by a fresh
        #: MembershipHost, so ``host.crashed`` alone cannot fence off this
        #: object's callbacks (a stale timer or in-flight CPU task would
        #: otherwise revive the old controller as a zombie sharing the
        #: pid and NIC of the restarted one).
        self._dead = False
        #: Timers that fired while paused; they run, late, at resume —
        #: exactly how a GC-stalled process experiences its own timers.
        self._deferred_timers: List[str] = []
        host.cpu.idle_hook = self._select_work

    # ------------------------------------------------------------------

    @property
    def pid(self) -> int:
        return self.controller.pid

    def start(self) -> None:
        self._effects.execute(self.controller.start())
        self.host.cpu.kick()

    def submit(
        self,
        payload: bytes = b"",
        service: DeliveryService = DeliveryService.AGREED,
        payload_size: Optional[int] = None,
    ) -> None:
        if self._dead:
            return
        self.controller.submit(
            payload=payload,
            service=service,
            timestamp=self.host.sim.now,
            payload_size=payload_size,
        )
        if self.checker is not None:
            self.checker.record_submission(self.pid)
        self.host.cpu.kick()

    def crash(self) -> None:
        """Fail-stop: drop all timers and stop processing, permanently."""
        self._dead = True
        self.host.crash()
        self._effects.cancel_timers()
        self._paused = False
        self._deferred_timers.clear()

    def pause(self) -> None:
        """Stall the process (GC-stall-style): no frame processing, no
        timer handling, but frames keep arriving in the kernel buffers."""
        if self._paused or self.host.crashed:
            return
        self._paused = True
        self.host.pause()

    def resume(self) -> None:
        """End a stall; deferred timers fire now, late."""
        if self._dead or not self._paused:
            return
        self._paused = False
        self.host.unpause()
        deferred, self._deferred_timers = self._deferred_timers, []
        for name in deferred:
            self._effects.execute(self.controller.on_timer(name))
        self.host.cpu.kick()

    # ------------------------------------------------------------------
    # Receive loop
    # ------------------------------------------------------------------

    def _select_work(self) -> Optional[Tuple[float, object, tuple]]:
        if self._dead or self.host.crashed:
            return None
        # Emptiness tests and pops go straight to the sockets' deques
        # (SocketBuffer.pop inlined): this hook runs once per frame
        # processed and method calls dominate its cost.
        token_frames = self._token_frames
        data_frames = self._data_frames
        # With no ring formed the token port (membership traffic) goes
        # first; after a visit data does, until the engine raises the
        # token's priority (§III-D).
        ordering = self.controller.ordering
        if not token_frames or (ordering is not None and not ordering.token_has_priority):
            # This host's cost model charges one receive per datagram
            # handed to the process (sends, deliveries and kernel
            # reassembly are free here; the bare driver's finer model
            # prices them), so non-final fragments are absorbed until a
            # datagram completes.
            while data_frames:
                frame = data_frames.popleft()
                self._data_socket._queued_bytes -= frame.size
                datagram = self.reassembler.accept(frame)
                if datagram is not None:
                    profile = self.profile
                    cost = profile.recv_cost(
                        profile.data_header_bytes + int(datagram.payload_size)
                    )
                    return (cost, self._process, (datagram,))
            if not token_frames:
                return None
            # Only fragments were waiting ahead of the token.
        frame = token_frames.popleft()
        self._token_socket._queued_bytes -= frame.size
        return (_CONTROL_CPU, self._process, (frame.payload,))

    def _process(self, payload: object) -> None:
        # A CPU task in flight when the process crashed still completes
        # its simulator event; the dead latch turns it into a no-op.
        if self._dead:
            return
        if payload.__class__ is CoalescedDatagram:
            effects = self.controller.on_data_batch(payload.messages)
        else:
            effects = self.controller.on_message(payload)
        self._effects.execute(effects)

    def on_timer(self, name: str) -> None:
        if self._dead or self.host.crashed:
            return
        if self._paused:
            self._deferred_timers.append(name)
            return
        self._effects.execute(self.controller.on_timer(name))
        self.host.cpu.kick()

    # ------------------------------------------------------------------
    # Effect backend (see repro.core.executor)
    # ------------------------------------------------------------------

    def send_data_run(self, run, retransmission: bool) -> None:
        payload, size = pack_run(run, self.profile.data_header_bytes)
        self.host.multicast_datagram(payload, size)

    def send_token(self, token, destination: int) -> None:
        self._nic_send(
            Frame(self.controller.pid, destination, _TOKEN, token.wire_size(), token)
        )

    def send_control(self, message, destination: Optional[int]) -> None:
        # Every control message sizes itself; only a recovered data
        # message needs the implementation's data header to do so.
        if message.__class__ is RecoveredMessage:
            size = message.wire_size(self.profile.data_header_bytes)
        else:
            size = message.wire_size()
        self._send_on_token_port(message, destination, size)

    def _send_on_token_port(self, payload, destination: Optional[int], size: int) -> None:
        self.host.nic.send(
            Frame(
                src=self.pid,
                dst=destination,
                kind=PortKind.TOKEN,
                size=size,
                payload=payload,
            )
        )

    def deliver(self, messages, config_id: int, origin_ring: int) -> None:
        # Per-message checker events in delivery order (one extend, not
        # len(messages) record calls) but a single tap hook for the run.
        self.delivered.extend(messages)
        if self.checker is not None:
            self.checker.record_batch(
                self.pid,
                [
                    MessageDelivery(
                        seq=message.seq,
                        sender=message.pid,
                        service=message.service,
                        config_id=config_id,
                        origin_ring=origin_ring,
                    )
                    for message in messages
                ],
            )
        if self.tap is not None:
            self.tap.on_deliver_batch(self.pid, messages, config_id, origin_ring)

    def deliver_config(self, configuration) -> None:
        self.configurations.append(configuration)
        if self.checker is not None:
            self.checker.record(self.pid, ConfigDelivery(configuration))
        if self.tap is not None:
            self.tap.on_config(self.pid, configuration)


class MembershipCluster:
    """A set of membership hosts on one network, plus fault injection.

    Assembled by :class:`repro.sim.build.ClusterBuilder`, which supplies
    the prebuilt ``topology`` (a fabric, one rack unless declared; several
    clusters — the rings of a MultiRingCluster — may share its
    simulator).
    """

    def __init__(
        self,
        topology: FabricTopology,
        accelerated: bool,
        profile: ImplementationProfile,
        config: Optional[ProtocolConfig] = None,
        timeouts: Optional[MembershipTimeouts] = None,
        observer: Optional["ProtocolObserver"] = None,
        delivery_tap: Optional[DeliveryTap] = None,
    ) -> None:
        self.sim = topology.sim
        self.topology = topology
        self.checker = EvsChecker()
        self.observer = observer
        #: Shared by every host (and re-attached across restarts): sees
        #: every delivery with its payload, for conformance extraction.
        self.delivery_tap = delivery_tap
        self._accelerated = accelerated
        self._profile = profile
        self._config = config or ProtocolConfig()
        self._timeouts = timeouts or MembershipTimeouts()
        self.hosts: Dict[int, MembershipHost] = {
            pid: self._new_host(pid) for pid in topology.host_ids
        }

    def _new_host(self, pid: int, initial_ring_seq: int = 0) -> MembershipHost:
        """A fresh process (empty protocol state) on host ``pid``."""
        controller = MembershipController(
            pid=pid,
            accelerated=self._accelerated,
            protocol_config=self._config,
            timeouts=self._timeouts,
            initial_ring_seq=initial_ring_seq,
            observer=self.observer,
            clock=lambda: self.sim.now,
        )
        return MembershipHost(
            host=self.topology.host(pid),
            controller=controller,
            profile=self._profile,
            checker=self.checker,
            tap=self.delivery_tap,
        )

    def start(self) -> None:
        for host in self.hosts.values():
            host.start()

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def _host(self, pid: int) -> MembershipHost:
        try:
            return self.hosts[pid]
        except KeyError:
            raise FaultError(
                f"unknown pid {pid}: cluster hosts are {sorted(self.hosts)}"
            ) from None

    def crash(self, pid: int) -> None:
        """Fail-stop ``pid``.  Idempotent: crashing a crashed process is
        a no-op, so scripted fault plans can overlap hand-driven faults."""
        host = self._host(pid)
        was_crashed = host.host.crashed
        host.crash()
        if not was_crashed:
            # Close the incarnation in the checker: submissions made
            # before this point no longer count against self-delivery of
            # whatever incarnation recovers later.
            self.checker.record_crash(pid)

    def restart(self, pid: int) -> None:
        """Recover a crashed process (paper §II: "process crashes and
        recoveries").

        The process restarts with empty state — a fresh controller on the
        same host — and rejoins through the normal gather/merge path, as a
        restarted daemon would.  Its pre-crash delivery trace stays in the
        checker; EVS guarantees for the crashed incarnation are waived by
        passing the pid in ``crashed`` when checking.

        Idempotent: restarting a live process is a no-op.
        """
        host = self._host(pid)
        if not host.host.crashed:
            return
        # The crash cleared the kernel buffers and queued CPU work, and
        # nothing accumulates while crashed, so the recovered host starts
        # from genuinely empty volatile state.
        host.host.recover()
        # Totem keeps the ring sequence number on stable storage so a
        # recovered process can never reuse one of its old ring ids.
        fresh = self._new_host(pid, host.controller.highest_ring_seq)
        self.hosts[pid] = fresh
        self.checker.record_recovery(pid)
        if self.delivery_tap is not None:
            self.delivery_tap.on_restart(pid)
        fresh.start()

    def pause(self, pid: int) -> None:
        """GC-stall ``pid``: the process stops executing but keeps
        receiving frames into its kernel buffers."""
        self._host(pid).pause()

    def resume(self, pid: int) -> None:
        self._host(pid).resume()

    def partition(self, *groups) -> None:
        self.topology.switch.set_partition(*groups)

    def heal(self) -> None:
        self.topology.switch.heal()

    def quiesce(self, restart: Iterable[int] = ()) -> None:
        """End every injected fault so membership can settle: heal the
        network, resume every stalled process, restart the ``restart``
        pids.  Each step is a no-op where there is nothing to undo."""
        self.heal()
        for host in self.hosts.values():
            host.resume()
        for pid in sorted(restart):
            self.restart(pid)

    def accepting(self, pid: int) -> bool:
        """Whether ``pid``'s daemon can take a client submission now:
        it is neither crashed nor stalled."""
        host = self._host(pid)
        return not host.host.crashed and not host._paused

    def converged(self) -> bool:
        """The live processes share one operational ring made of exactly
        themselves."""
        return set(self.rings().values()) == {tuple(self.live_pids())} and set(
            self.states().values()
        ) == {"operational"}

    def live_pids(self) -> List[int]:
        return sorted(
            pid for pid, host in self.hosts.items() if not host.host.crashed
        )

    def states(self) -> Dict[int, str]:
        return {
            pid: host.controller.state.value
            for pid, host in self.hosts.items()
            if not host.host.crashed
        }

    def rings(self) -> Dict[int, tuple]:
        return {
            pid: host.controller.members
            for pid, host in self.hosts.items()
            if not host.host.crashed
        }

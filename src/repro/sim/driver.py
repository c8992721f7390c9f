"""Binds one protocol participant to one simulated host.

The driver is the "implementation": it owns the single-threaded CPU loop,
reads frames from the token and data sockets according to the protocol's
current priority (paper §III-D), charges the profile's CPU costs, executes
the engine's effects in order, fragments large datagrams, and records
latency/throughput statistics.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.executor import EffectExecutor
from repro.core.messages import DataMessage, DeliveryService
from repro.core.participant import AcceleratedRingParticipant
from repro.core.token import RegularToken
from repro.net.fragment import CoalescedDatagram, Reassembler, pack_run
from repro.net.host import SimHost
from repro.net.packet import Frame, PortKind
from repro.obs.observer import ProtocolObserver, effective_observer
from repro.sim.profiles import ImplementationProfile
from repro.util.stats import RunStats

#: Age bound (simulated seconds) on partial reassembly state — the IP
#: reassembly timer.  Checked lazily on fragment arrival (no scheduled
#: events), so it leaves the event sequence of every run untouched.
_REASSEMBLY_MAX_AGE = 0.5


def new_reassembler(host: SimHost) -> Reassembler:
    """The IP reassembly buffer of one simulated host's data socket."""
    return Reassembler(max_age=_REASSEMBLY_MAX_AGE, clock=lambda: host.sim.now)


class ProtocolHost:
    """One server: a protocol engine + its host machine + its clients.

    ``observer`` defaults to the participant's observer; either way the
    participant's clock is bound to simulated time, so every hook the
    engine fires carries a simulated-seconds ``now`` and the driver can
    report application deliveries (``on_deliver_batch``) at the moment
    the delivery CPU work actually completes.
    """

    def __init__(
        self,
        host: SimHost,
        participant: AcceleratedRingParticipant,
        profile: ImplementationProfile,
        stats: Optional[RunStats] = None,
        measure_from: float = 0.0,
        observer: Optional[ProtocolObserver] = None,
    ) -> None:
        self.host = host
        self.participant = participant
        self.profile = profile
        self.stats = stats if stats is not None else RunStats()
        # A bare NullObserver collapses to None so hot-path hook guards
        # (`observer is not None`) skip no-op calls entirely.
        observer = effective_observer(observer)
        self.observer = observer if observer is not None else participant.observer
        if participant.observer is None:
            participant.observer = observer
        # Hot-path caches: the profile is a frozen dataclass, so its cost
        # model is hoisted into locals once.  The inlined cost expressions
        # below must keep the exact arithmetic shape of
        # ImplementationProfile.recv_cost/send_cost and
        # DataMessage.wire_size or seeded traces change.
        self._recv_cpu = profile.recv_cpu
        self._per_byte_recv = profile.per_byte_recv
        self._send_cpu = profile.send_cpu
        self._per_byte_send = profile.per_byte_send
        self._header_bytes = profile.data_header_bytes
        self._token_cpu = profile.token_cpu
        self._token_send_cpu = profile.token_send_cpu
        self._deliver_cpu = profile.deliver_cpu
        self._ingest_cpu = profile.ingest_cpu
        # Non-final fragments all cost the same and carry no arguments, so
        # a single shared task tuple serves every one of them.
        self._fragment_task = (profile.fragment_cpu, _noop, ())
        self._queue_task = host.cpu._queue.append
        #: The shared effect interpreter; this host is its backend (the
        #: sim only adds CPU pricing on top of the common run grouping).
        self._effects = EffectExecutor(
            self, participant.config.messages_per_datagram
        )
        self.coalesced_datagrams = 0
        self.coalesced_messages = 0
        if participant.clock is None:
            participant.clock = lambda: host.sim.now
        #: Deliveries of messages submitted before this time are excluded
        #: from latency statistics (warm-up window).
        self.measure_from = measure_from
        # The sockets' frame deques are stable for the host's lifetime
        # (crash/clear empty them in place, never replace them), so the
        # idle hook can hold them directly instead of walking
        # host -> socket -> deque on every call.
        self._token_socket = host.token_socket
        self._data_socket = host.data_socket
        self._token_frames = host.token_socket._frames
        self._data_frames = host.data_socket._frames
        self.reassembler = new_reassembler(host)
        self.delivered_log: List[DataMessage] = []
        #: Bound by the cluster: stop delivering application payloads
        #: (used when an experiment caps message counts).
        self.keep_delivered_log = False

        host.cpu.idle_hook = self._select_work

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def client_submit(
        self,
        payload_size: int,
        service: DeliveryService = DeliveryService.AGREED,
    ) -> None:
        """A local sending client hands the daemon one message.

        The message is timestamped now (latency is measured from client
        injection to client delivery, like the paper's benchmarks).  For
        daemon architectures the IPC read costs CPU.
        """
        now = self.host.sim.now
        self.participant.submit(
            payload=b"",
            service=service,
            timestamp=now,
            payload_size=payload_size,
        )
        self.stats.messages_sent += 1
        if self._ingest_cpu > 0.0:
            self.host.cpu.submit(self._ingest_cpu, _noop)
        else:
            self.host.cpu.kick()

    def inject_token(self, token: RegularToken) -> None:
        """Deliver the initial token directly to this host's token socket."""
        frame = Frame(
            src=self.participant.predecessor,
            dst=self.participant.pid,
            kind=PortKind.TOKEN,
            size=token.wire_size(),
            payload=token,
        )
        self.host.receive(frame)

    # ------------------------------------------------------------------
    # CPU loop
    # ------------------------------------------------------------------

    def _select_work(self) -> Optional[Tuple[float, Callable[..., None], tuple]]:
        """Pick the next frame to process, honoring token/data priority.

        Called by the CPU whenever its explicit queue drains.  After a
        token is processed data has high priority; the engine raises
        ``token_has_priority`` per the configured §III-D method.

        Returns ``(cost, fn, args)`` tasks — arguments ride in the tuple
        so no closure is allocated per frame.
        """
        if self.host.crashed:
            return None
        # Emptiness tests and pops go straight to the sockets' deques
        # (SocketBuffer.pop inlined): this hook runs once per frame
        # processed and method calls dominate its cost.
        data_frames = self._data_frames
        token_frames = self._token_frames
        if token_frames and (self.participant.token_has_priority or not data_frames):
            frame = token_frames.popleft()
            self._token_socket._queued_bytes -= frame.size
            return (self._token_cpu, self._process_token, (frame.payload,))
        if data_frames:
            frame = data_frames.popleft()
            self._data_socket._queued_bytes -= frame.size
            # Reassembler.accept inlined for the unfragmented common case
            # (same counter updates); fragments take the slow path.
            if frame.fragment is None:
                self.reassembler.datagrams_completed += 1
                datagram = frame.payload
            else:
                datagram = self.reassembler.accept(frame)
                if datagram is None:
                    # A non-final fragment: cheap kernel work, no protocol
                    # event.
                    return self._fragment_task
            # profile.recv_cost(datagram.wire_size(header)) inlined —
            # identical arithmetic shape, two method calls saved per
            # data message.  CoalescedDatagram.payload_size is defined so
            # the same expression prices the whole multi-message frame.
            cost = self._recv_cpu + self._per_byte_recv * (
                self._header_bytes + int(datagram.payload_size)
            )
            if datagram.__class__ is CoalescedDatagram:
                return (cost, self._process_data_batch, (datagram,))
            return (cost, self._process_data, (datagram,))
        return None

    def _process_token(self, token: RegularToken) -> None:
        effects = self.participant.on_token(token)
        if effects:
            self.stats.token_rounds += 1
        self._effects.execute(effects)

    def _process_data(self, message: DataMessage) -> None:
        effects = self.participant.on_data(message)
        if effects:
            self._effects.execute(effects)

    def _process_data_batch(self, datagram: CoalescedDatagram) -> None:
        effects = self.participant.on_data_batch(datagram.messages)
        if effects:
            self._effects.execute(effects)

    # ------------------------------------------------------------------
    # Effect backend (see repro.core.executor): every effect becomes one
    # priced CPU task.  Cpu.submit is bypassed — tasks are appended
    # straight onto the CPU queue.  Effects are only ever executed from
    # inside a CPU task (the _process_* methods above), so the CPU is
    # busy and picks the appended tasks up, in order, when that task
    # finishes: no kick is needed.
    # ------------------------------------------------------------------

    def send_data_run(self, run, retransmission: bool) -> None:
        payload, size = pack_run(run, self._header_bytes)
        # profile.send_cost(size) inlined — identical arithmetic shape.
        # One send_cpu per datagram is the coalescing win; every wire
        # byte still costs per_byte_send.
        self._queue_task(
            (
                self._send_cpu + self._per_byte_send * size,
                self._run_multicast,
                (payload, size, retransmission),
            )
        )

    def send_token(self, token: RegularToken, destination: int) -> None:
        self._queue_task(
            (self._token_send_cpu, self._run_token_send, (token, destination))
        )

    def deliver(self, messages: Tuple[DataMessage, ...], config_id, origin_ring) -> None:
        # One CPU task for the whole run, priced per message: the CPU's
        # busy time and every subsequent task's start time do not depend
        # on how the engine grouped its deliveries into runs, so transmit
        # timing (and the seeded traces built on it) does not either —
        # only the per-message delivery records sit at the run's end.
        self._queue_task(
            (self._deliver_cpu * len(messages), self._run_delivery, (messages,))
        )

    # ------------------------------------------------------------------
    # CPU tasks
    # ------------------------------------------------------------------

    def _run_multicast(self, payload, size: int, retransmission: bool) -> None:
        self.host.multicast_datagram(payload, size)
        if retransmission:
            self.stats.retransmissions += 1
        elif payload.__class__ is CoalescedDatagram:
            self.coalesced_datagrams += 1
            self.coalesced_messages += len(payload.messages)

    def _run_token_send(self, token: RegularToken, destination: int) -> None:
        frame = Frame(
            self.participant.pid,
            destination,
            PortKind.TOKEN,
            token.wire_size(),
            token,
        )
        self.host.nic.send(frame)

    def _run_delivery(self, messages: Tuple[DataMessage, ...]) -> None:
        # One hook call and one stats loop for the whole in-order run.
        now = self.host.sim.now
        observer = self.observer
        if observer is not None:
            observer.on_deliver_batch(self.participant.pid, messages, now=now)
        if self.keep_delivered_log:
            self.delivered_log.extend(messages)
        self.stats.record_delivery_batch(now, messages, self.measure_from)


def _noop() -> None:
    return None

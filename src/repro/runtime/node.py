"""A full protocol stack on one asyncio event loop.

:class:`RingNode` is the runtime equivalent of the paper's library-based
prototype: the process itself injects and receives messages.  It wires a
:class:`~repro.membership.controller.MembershipController` (which wraps
the ordering engine) to a :class:`~repro.runtime.transport.UdpTransport`,
executes timer effects on the loop's ``call_at`` through :class:`LoopTimer`,
and implements the token/data priority discipline over two receive
queues.

Input is handled a *pass* at a time (PROTOCOL.md §4, "the runtime's
pass"): the transport queues everything one wakeup found in the kernel,
data before token, and one call then handles all of it under the §III-D
priority rule — not one datagram per trip through the event loop.

Effects are executed by the shared
:class:`~repro.core.executor.EffectExecutor` (run grouping, the timer
table and dispatch are the same code the simulator runs); this node is
its asyncio backend.  The datagram path is the shared sans-io transport
core (:mod:`repro.core.transport_core`): a token visit's new messages
leave in as few datagrams as :data:`DATAGRAM_BUDGET` bytes allow
(:func:`split_run`; PROTOCOL.md §9.1), received datagrams queue in two
``collections.deque`` (every push, pop and emptiness test a C call) and
the data port is decoded with the port-aware :func:`decode_data_port`
(batches and single data messages only — the token port carries
everything else via ``decode_any``).
This module only binds that logic to sockets, timers, and the event
loop.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.codec import DATA_HEADER_BYTES
from repro.core.config import ProtocolConfig
from repro.core.executor import EffectExecutor
from repro.core.messages import DataMessage, DeliveryService
from repro.core.transport_core import decode_data_port, encode_run, split_run
from repro.evs.configuration import Configuration
from repro.membership.codec import RECOVERED_OVERHEAD, decode_any, encode_any
from repro.membership.controller import MembershipController
from repro.membership.params import MembershipTimeouts
from repro.runtime.transport import (
    DATAGRAM_BUDGET,
    MAX_UDP_PAYLOAD,
    PeerAddress,
    UdpTransport,
)
from repro.util.errors import CodecError

if TYPE_CHECKING:
    from repro.obs.observer import ProtocolObserver

#: Wall-clock membership timeouts suitable for loopback rings.
RUNTIME_TIMEOUTS = MembershipTimeouts(
    token_loss=0.5,
    join_interval=0.1,
    consensus_timeout=0.4,
    commit_timeout=1.0,
    recovery_status_interval=0.1,
    recovery_timeout=3.0,
    beacon_interval=0.5,
)

#: The runtime's protocol configuration: the paper's windows, and a
#: visit's new messages coalesced up to the personal window — a visit
#: can never send more, so only :data:`DATAGRAM_BUDGET` bytes bind.
#: Callers who tune windows write ``replace(RUNTIME_PROTOCOL, ...)``;
#: ``messages_per_datagram=1`` turns coalescing off.
RUNTIME_PROTOCOL = ProtocolConfig(
    messages_per_datagram=ProtocolConfig.personal_window
)

#: Largest payload :meth:`RingNode.submit` accepts.  A message must fit
#: one UDP datagram on its own — as plain data, and inside the wrapper
#: membership recovery retransmits it in — because a send the kernel
#: refuses is a loss that every retransmission repeats.
MAX_PAYLOAD = MAX_UDP_PAYLOAD - DATA_HEADER_BYTES - RECOVERED_OVERHEAD

#: Takes one delivered run — the messages a single engine step released,
#: in order, all in configuration ``config_id`` — never one message.
DeliverCallback = Callable[[Sequence[DataMessage], int], None]
ConfigCallback = Callable[[Configuration], None]
Clock = Callable[[], float]

#: Datagrams handled in one pass before the node yields to the event
#: loop (timers, client sockets, the other daemons of a loopback fleet).
PASS_BUDGET = 128


class LoopTimer:
    """A timer on an asyncio loop whose deadline can move later in place.

    It holds one loop handle, armed at ``call_at(due)``.  Moving the
    timer later (:meth:`RingNode.reschedule`) only writes ``when``; if
    the handle fires before ``when`` the timer arms once more, at
    ``when``, and the callback runs then.  So a token-loss timer re-armed
    on every visit costs the loop one handle per timeout period, not one
    per visit — the rule :meth:`repro.net.simulator.Simulator.reschedule`
    follows with its heap entries.  Only the loop's ``call_at`` and
    ``time`` are used.
    """

    __slots__ = ("_loop", "_armed", "_due", "when", "callback", "args")

    def __init__(self, loop, when: float, callback, args: tuple) -> None:
        self._loop = loop
        self.when = when
        self.callback = callback
        self.args = args
        #: Deadline of the loop handle in ``_armed`` (never after ``when``).
        self._due = when
        #: The armed loop handle; None once fired or cancelled.
        self._armed = loop.call_at(when, self._fire)

    def cancel(self) -> None:
        armed = self._armed
        if armed is not None:
            self._armed = None
            armed.cancel()

    def _fire(self) -> None:
        when = self.when
        if self._due < when:
            self._due = when
            self._armed = self._loop.call_at(when, self._fire)
            return
        self._armed = None
        self.callback(*self.args)


class RingNode:
    """One process in a (loopback) ring."""

    def __init__(
        self,
        pid: int,
        peers: Dict[int, PeerAddress],
        accelerated: bool = True,
        protocol_config: Optional[ProtocolConfig] = None,
        timeouts: Optional[MembershipTimeouts] = None,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        token_loss_rate: float = 0.0,
        observer: Optional["ProtocolObserver"] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.pid = pid
        self.observer = observer
        config = protocol_config or RUNTIME_PROTOCOL
        self.controller = MembershipController(
            pid=pid,
            accelerated=accelerated,
            protocol_config=config,
            timeouts=timeouts or RUNTIME_TIMEOUTS,
            observer=observer,
        )
        self.transport = UdpTransport(
            pid=pid,
            peers=peers,
            on_data=self._enqueue_data,
            on_token=self._enqueue_token,
            loss_rate=loss_rate,
            loss_seed=loss_seed,
            token_loss_rate=token_loss_rate,
        )
        #: Messages delivered so far.
        self.delivered_count = 0
        #: The delivered messages themselves — kept only while no
        #: ``on_deliver`` consumer is installed (a bare node is its own
        #: application; under a daemon the log would grow with every
        #: message the ring ever ordered).
        self.delivered: List[DataMessage] = []
        self.configurations: List[Configuration] = []
        self.on_deliver: Optional[DeliverCallback] = None
        self.on_config: Optional[ConfigCallback] = None
        #: Called after each batch of input (a pass, an expired timer) has
        #: been handled and its deliveries made: the consumer's cue to
        #: write out what the batch produced.
        self.on_batch_end: Optional[Callable[[], None]] = None

        #: Injectable monotonic time source.  Defaults to the running
        #: event loop's clock (bound lazily in :meth:`start`): tests
        #: inject a controllable clock so membership timeouts can be
        #: tightened without flaking on slow CI machines, and so message
        #: timestamps / observer events share one time domain.
        self._clock: Optional[Clock] = clock
        self._effects = EffectExecutor(self, config.messages_per_datagram)
        self._data_queue: deque = deque()
        self._token_queue: deque = deque()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pass_scheduled = False
        self._closed = False
        self.decode_errors = 0
        #: Coalesced datagrams actually sent (two or more messages).
        self.batches_sent = 0
        self.batched_messages = 0

    # ------------------------------------------------------------------

    def _now(self) -> float:
        clock = self._clock
        if clock is not None:
            return clock()
        return asyncio.get_running_loop().time()

    async def start(self) -> None:
        # Observer timestamps use the injected clock (default: the event
        # loop's) — the same clock ``submit`` stamps messages with, so
        # delivery latencies subtract cleanly.
        self._loop = asyncio.get_running_loop()
        if self._clock is None:
            self._clock = self._loop.time
        self.controller.clock = self._clock
        await self.transport.start()
        self._effects.execute(self.controller.start())

    async def stop(self) -> None:
        """Fail-stop this node (crash semantics: nothing is flushed)."""
        self._closed = True
        self._effects.cancel_timers()
        self.transport.close()

    def submit(
        self,
        payload: bytes = b"",
        service: DeliveryService = DeliveryService.AGREED,
    ) -> None:
        """Queue one message for ordering.

        Raises :class:`CodecError` before anything is queued when the
        payload exceeds :data:`MAX_PAYLOAD` (PROTOCOL.md §15, "oversized
        payloads").
        """
        if len(payload) > MAX_PAYLOAD:
            raise CodecError(
                f"a {len(payload)}-byte payload cannot be encoded: a message "
                f"must fit one UDP datagram (at most {MAX_PAYLOAD} payload bytes)"
            )
        self.controller.submit(payload=payload, service=service, timestamp=self._now())

    @property
    def members(self) -> tuple:
        return self.controller.members

    @property
    def state(self) -> str:
        return self.controller.state.value

    @property
    def ring_id(self):
        """Installed ring's config id (None before the first ring forms)."""
        return self.controller.ring_id

    # ------------------------------------------------------------------

    def _enqueue_data(self, datagram: bytes) -> None:
        self._data_queue.append(datagram)
        if not self._pass_scheduled:
            self._schedule_pass()

    def _enqueue_token(self, datagram: bytes) -> None:
        self._token_queue.append(datagram)
        if not self._pass_scheduled:
            self._schedule_pass()

    def _schedule_pass(self) -> None:
        self._pass_scheduled = True
        self._loop.call_soon(self._pass)

    def _pass(self) -> None:
        """Handle everything queued, under the §III-D priority rule.

        A token is taken ahead of queued data only once the engine has
        raised its priority; otherwise data goes first — including the
        data the transport read ahead of the token in the same wakeup.
        """
        self._pass_scheduled = False
        if self._closed:
            return
        data_queue = self._data_queue
        token_queue = self._token_queue
        controller = self.controller
        for _ in range(PASS_BUDGET):
            if token_queue and (controller.token_has_priority or not data_queue):
                self._handle_token(token_queue.popleft())
            elif data_queue:
                self._handle_data(data_queue.popleft())
            else:
                break
        else:
            if data_queue or token_queue:
                self._schedule_pass()
        self._batch_end()

    def _batch_end(self) -> None:
        if self.on_batch_end is not None:
            self.on_batch_end()

    def _handle_data(self, datagram: bytes) -> None:
        """Decode one data-port datagram: a single message or a batch."""
        try:
            decoded = decode_data_port(datagram)
        except CodecError:
            self.decode_errors += 1
            return
        if type(decoded) is list:
            self._effects.execute(self.controller.on_data_batch(decoded))
        else:
            self._effects.execute(self.controller.on_message(decoded))

    def _handle_token(self, datagram: bytes) -> None:
        """Decode one token-port datagram (tokens + membership control)."""
        try:
            message = decode_any(datagram)
        except CodecError:
            self.decode_errors += 1
            return
        self._effects.execute(self.controller.on_message(message))

    # ------------------------------------------------------------------
    # Effect backend (see repro.core.executor)
    # ------------------------------------------------------------------

    def send_data_run(self, run, retransmission: bool) -> None:
        """One datagram per sub-run of at most :data:`DATAGRAM_BUDGET`
        bytes, in order (a retransmission is always a run of one)."""
        multicast = self.transport.multicast_data
        for sub_run in split_run(run, DATAGRAM_BUDGET):
            if len(sub_run) > 1:
                self.batches_sent += 1
                self.batched_messages += len(sub_run)
            multicast(encode_run(sub_run))

    def send_token(self, token, destination: int) -> None:
        self.transport.send_token(encode_any(token), destination)

    def send_control(self, message, destination: Optional[int]) -> None:
        self.transport.send_control(encode_any(message), destination)

    def schedule(self, delay: float, callback, *args) -> LoopTimer:
        loop = self._loop
        return LoopTimer(loop, loop.time() + delay, callback, args)

    def reschedule(self, handle: LoopTimer, delay: float, callback, *args) -> LoopTimer:
        """``handle.cancel()`` + ``schedule(...)``, observably (fire time
        and order); a live timer moved later is the same object with a
        new deadline, and nothing touches the loop's timer heap."""
        loop = self._loop
        when = loop.time() + delay
        if handle._armed is None or when < handle.when:
            handle.cancel()
            return LoopTimer(loop, when, callback, args)
        handle.when = when
        handle.callback = callback
        handle.args = args
        return handle

    def on_timer(self, name: str) -> None:
        if not self._closed:
            self._effects.execute(self.controller.on_timer(name))
            self._batch_end()

    def deliver(self, messages, config_id: int, origin_ring: int) -> None:
        self.delivered_count += len(messages)
        on_deliver = self.on_deliver
        if on_deliver is None:
            self.delivered.extend(messages)
        else:
            on_deliver(messages, config_id)

    def deliver_config(self, configuration: Configuration) -> None:
        self.configurations.append(configuration)
        if self.on_config is not None:
            self.on_config(configuration)

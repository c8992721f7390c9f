"""The Accelerated Ring ordering protocol (paper §III).

:class:`AcceleratedRingParticipant` is a sans-io state machine: feed it
received tokens and data messages, and it returns the ordered list of
effects (multicasts, the token send, deliveries) the implementation must
perform.  Effects preceding the :class:`~repro.core.events.SendToken` are
the *pre-token multicast phase*; effects following it are the *post-token
phase* — the protocol's key innovation is that the token can be released
before the post-token phase runs.

Normal-case operation only: membership establishment, token loss, crashes,
and partitions are the membership algorithm's job (:mod:`repro.membership`),
exactly as in the paper.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Sequence

from repro.core.buffer import MessageBuffer
from repro.core.config import ProtocolConfig, TokenPriorityMethod
from repro.core.events import (
    Deliver,
    Effect,
    MulticastData,
    SendToken,
    Stable,
)
from repro.core.flow_control import plan_sending, update_fcc
from repro.core.messages import DataMessage, DeliveryService
from repro.core.token import RegularToken
from repro.obs.observer import effective_observer
from repro.util.errors import ProtocolError

if TYPE_CHECKING:
    from repro.obs.observer import ProtocolObserver

# Hoisted enum member for the delivery hot loop (one global load instead
# of a module global plus an enum attribute lookup per call).
_SAFE = DeliveryService.SAFE


class _PendingMessage:
    """An application payload waiting for the token."""

    __slots__ = ("payload", "service", "timestamp", "payload_size")

    def __init__(
        self,
        payload: bytes,
        service: DeliveryService,
        timestamp: Optional[float],
        payload_size: Optional[int],
    ) -> None:
        self.payload = payload
        self.service = service
        self.timestamp = timestamp
        self.payload_size = payload_size if payload_size is not None else len(payload)


class AcceleratedRingParticipant:
    """One member of the logical ring running the Accelerated Ring protocol.

    Args:
        pid: this participant's id; must appear in ``ring``.
        ring: participant ids in ring order (token travels in list order,
            wrapping around).
        config: flow-control windows and priority method.
        ring_id: identifier of the current ring configuration (from
            membership); tokens from other rings are ignored.
        observer: optional :class:`~repro.obs.observer.ProtocolObserver`
            receiving a callback at every protocol event.
        clock: optional zero-argument callable returning the current time
            in the hosting layer's clock domain; passed through to the
            observer as ``now``.  Drivers bind this to simulated or
            event-loop time.
    """

    #: True for engines that release the token before finishing multicasting.
    accelerated = True

    def __init__(
        self,
        pid: int,
        ring: Sequence[int],
        config: Optional[ProtocolConfig] = None,
        ring_id: int = 1,
        observer: Optional["ProtocolObserver"] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if pid not in ring:
            raise ProtocolError(f"pid {pid} not in ring {list(ring)}")
        if len(set(ring)) != len(ring):
            raise ProtocolError(f"ring contains duplicate ids: {list(ring)}")
        self.pid = pid
        self.ring = list(ring)
        self.config = (config or ProtocolConfig()).validate()
        self.ring_id = ring_id
        # A bare NullObserver collapses to None so the hot-path hook
        # guards (`observer is not None`) skip no-op calls entirely.
        self.observer = effective_observer(observer)
        self.clock = clock
        index = self.ring.index(pid)
        self.successor = self.ring[(index + 1) % len(self.ring)]
        self.predecessor = self.ring[(index - 1) % len(self.ring)]

        self.buffer = MessageBuffer()
        self.pending: Deque[_PendingMessage] = deque()
        self.round = 0

        #: Data messages get high priority right after a token is processed;
        #: the methods of §III-D raise the token's priority back.
        self.token_has_priority = False

        self._last_token_id = -1
        self._sent_last_round = 0
        self._prev_token_seq = 0
        self._sent_aru_prev = 0
        self._safe_limit = 0
        self._last_delivered = 0

        # Statistics.
        self.rounds_completed = 0
        self.messages_originated = 0
        self.retransmissions_sent = 0
        self.requests_made = 0
        self.duplicate_tokens = 0
        self.messages_delivered = 0

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------

    def submit(
        self,
        payload: bytes = b"",
        service: DeliveryService = DeliveryService.AGREED,
        timestamp: Optional[float] = None,
        payload_size: Optional[int] = None,
    ) -> None:
        """Queue an application message; it is stamped and multicast when
        the token next visits this participant."""
        self.pending.append(_PendingMessage(payload, service, timestamp, payload_size))

    @property
    def pending_count(self) -> int:
        return len(self.pending)

    def _now(self) -> Optional[float]:
        """Current time in the hosting layer's clock domain, if bound."""
        return self.clock() if self.clock is not None else None

    @property
    def local_aru(self) -> int:
        return self.buffer.local_aru

    @property
    def last_delivered(self) -> int:
        return self._last_delivered

    @property
    def safe_limit(self) -> int:
        """Highest sequence number currently known stable (Safe-deliverable)."""
        return self._safe_limit

    # ------------------------------------------------------------------
    # Token handling (paper §III-B)
    # ------------------------------------------------------------------

    def on_token(self, token: RegularToken) -> List[Effect]:
        """Handle a received regular token; returns the effects in order:
        pre-token multicasts, the token send, post-token multicasts, then
        deliveries and discard notifications.

        Most visits on a lightly loaded ring have nothing to answer, send,
        request or deliver, so every phase below is skipped when its input
        is empty (each guard names the invariant it relies on).  The
        received token is never mutated; the outgoing one is built once.
        """
        if token.ring_id != self.ring_id:
            return []
        token_id = token.token_id
        if token_id <= self._last_token_id:
            self.duplicate_tokens += 1
            return []
        self._last_token_id = token_id
        self.round += 1
        self.rounds_completed += 1

        pid = self.pid
        observer = self.observer
        now = None
        if observer is not None:
            now = self._now()
            observer.on_token_received(pid, token, now=now)

        effects: List[Effect] = []
        received_seq = token.seq
        received_aru = token.aru
        rtr = token.rtr
        buffer = self.buffer

        # --- 1. Pre-token multicasting -------------------------------
        # All retransmissions must go out before the token; otherwise they
        # could be requested again (paper §III-B1).
        answered: Sequence[int] = ()
        if rtr:
            answered = []
            for requested in rtr:
                held = buffer.get(requested)
                if held is not None:
                    answered.append(requested)
                    effects.append(MulticastData(held, retransmission=True))
                    if observer is not None:
                        observer.on_multicast(pid, held, retransmission=True, now=now)
            self.retransmissions_sent += len(answered)
        sent = len(answered)

        # Nothing queued means nothing to plan or stamp (num_to_send is
        # min(queued, ...) = 0); an observer is told the plan every visit.
        num_to_send = pre_token = 0
        new_messages: Sequence[DataMessage] = ()
        if self.pending or observer is not None:
            plan = plan_sending(self.config, len(self.pending), token.fcc, sent)
            if observer is not None:
                observer.on_flow_control(pid, plan, token.fcc, now=now)
            num_to_send = plan.num_to_send
            pre_token = plan.pre_token
            new_messages = self._stamp_new_messages(received_seq, num_to_send, pre_token)
            for message in new_messages[:pre_token]:
                effects.append(MulticastData(message))
                if observer is not None:
                    observer.on_multicast(pid, message, now=now)
            sent += num_to_send

        # --- 2. Updating and sending the token ------------------------
        new_seq = received_seq + num_to_send
        local_aru = buffer._local_aru  # includes the messages just stamped
        # The aru rules of paper §III-B2 / Totem.
        aru = received_aru
        lowered_by = token.aru_lowered_by
        if local_aru < received_aru:
            # Rule 1: lower the aru to what we actually have.
            aru = local_aru
            lowered_by = pid
        elif lowered_by == pid:
            # Rule 2: we lowered it previously and nobody lowered it
            # further since — raise it to our current local aru.
            aru = local_aru
            if aru == new_seq:
                lowered_by = None
        elif received_aru == received_seq:
            # Rule 3: aru was keeping pace with seq; advance it with our
            # own sends (we hold all prior messages and our new ones).
            aru = new_seq
            lowered_by = None
        # Otherwise: some other participant governs the aru; leave it.

        fcc = update_fcc(token.fcc, self._sent_last_round, sent)
        self._sent_last_round = sent

        # Requests: nothing to drop when the list is empty, and nothing
        # to add when the local aru has reached the request limit
        # (missing_between(low, high) is empty for high <= low).
        request_limit = self._retransmission_request_limit(token)
        if new_seq < request_limit:
            request_limit = new_seq
        if rtr or local_aru < request_limit:
            new_rtr = self._updated_rtr(rtr, answered, request_limit, now)
        else:
            new_rtr = None
        rotation = token.rotation
        if pid == self.ring[0]:
            rotation += 1
        outgoing = RegularToken(
            self.ring_id, token_id + 1, new_seq, aru, lowered_by, fcc, new_rtr, rotation
        )
        effects.append(SendToken(outgoing, self.successor))
        if observer is not None:
            observer.on_token_sent(pid, outgoing, now=now)

        # --- 3. Post-token multicasting --------------------------------
        for message in new_messages[pre_token:]:
            effects.append(MulticastData(message))
            if observer is not None:
                observer.on_multicast(pid, message, now=now)

        # --- 4. Delivering and discarding ------------------------------
        # Safe delivery limit: the minimum of the aru on the token sent this
        # round and the one sent last round (paper §III-B4).
        safe_limit = self._sent_aru_prev
        if aru < safe_limit:
            safe_limit = aru
        self._safe_limit = safe_limit
        self._sent_aru_prev = aru
        # Only messages at or below the local aru are contiguous, so a
        # frontier already there has nothing to deliver at any safe limit.
        last_delivered = self._last_delivered
        if last_delivered != local_aru:
            effects.extend(self._deliver_ready())
            last_delivered = self._last_delivered
        discard_limit = safe_limit if safe_limit < last_delivered else last_delivered
        # A limit at or below the last discard covers nothing still held.
        if discard_limit > buffer._discarded_up_to and buffer.discard_up_to(discard_limit):
            effects.append(Stable(discard_limit))

        # Bookkeeping for the accelerated request rule and §III-D priority.
        self._prev_token_seq = received_seq
        self.token_has_priority = False
        return effects

    # ------------------------------------------------------------------
    # Data handling (paper §III-C)
    # ------------------------------------------------------------------

    def rollback_delivery_frontier(self, last_delivered: int) -> None:
        """Roll the delivery frontier back to ``last_delivered``.

        Used by the membership layer while a view change is in progress:
        messages that arrive mid-change must not be delivered with normal
        attribution, so the controller undoes the frontier advance and
        re-delivers through the recovery rules instead.
        """
        if last_delivered > self._last_delivered:
            raise ProtocolError(
                f"cannot roll delivery frontier forward "
                f"({last_delivered} > {self._last_delivered})"
            )
        self.messages_delivered -= self._last_delivered - last_delivered
        self._last_delivered = last_delivered

    def on_data(self, message: DataMessage) -> List[Effect]:
        """Handle a received data message; may produce in-order deliveries."""
        if message.ring_id != self.ring_id:
            return []
        if not self.buffer.insert(message):
            return []
        # Guard duplicates _maybe_raise_token_priority's rejection test so
        # the common case (message not from the predecessor's next round)
        # skips the call entirely.
        if message.pid == self.predecessor and message.round > self.round:
            self._maybe_raise_token_priority(message)
        return self._deliver_ready()

    def on_data_batch(self, messages: Sequence[DataMessage]) -> List[Effect]:
        """Handle one coalesced datagram carrying several data messages.

        Equivalent to calling :meth:`on_data` per message, but the
        delivery scan runs once over the whole batch, so an in-order
        datagram yields a single :class:`~repro.core.events.Deliver` run
        instead of one effect list per message.
        """
        buffer_insert = self.buffer.insert
        ring_id = self.ring_id
        predecessor = self.predecessor
        inserted = False
        for message in messages:
            if message.ring_id != ring_id:
                continue
            if not buffer_insert(message):
                continue
            inserted = True
            if message.pid == predecessor and message.round > self.round:
                self._maybe_raise_token_priority(message)
        if not inserted:
            return []
        return self._deliver_ready()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _stamp_new_messages(
        self, start_seq: int, num_to_send: int, pre_token: int
    ) -> List[DataMessage]:
        """Assign consecutive sequence numbers to the next ``num_to_send``
        pending payloads.  The sender also inserts its own messages into its
        buffer: it trivially "has" them, so they count toward its local aru.
        """
        messages: List[DataMessage] = []
        popleft = self.pending.popleft
        insert = self.buffer.insert
        pid, round_, ring_id = self.pid, self.round, self.ring_id
        for index in range(num_to_send):
            pending = popleft()
            # Positional, in DataMessage's parameter order: seq, pid,
            # round, service, payload, post_token, payload_size,
            # timestamp, ring_id.
            message = DataMessage(
                start_seq + 1 + index,
                pid,
                round_,
                pending.service,
                pending.payload,
                index >= pre_token,
                pending.payload_size,
                pending.timestamp,
                ring_id,
            )
            insert(message)
            messages.append(message)
        self.messages_originated += num_to_send
        return messages

    def _retransmission_request_limit(self, received_token: RegularToken) -> int:
        """Highest sequence number this participant may request.

        Accelerated rule (paper §III-B2): request only up through the seq
        of the token received in the *previous* round — anything newer may
        simply not have been sent yet.  The original protocol overrides
        this to use the current token's seq.
        """
        return self._prev_token_seq

    def _updated_rtr(
        self,
        rtr: Sequence[int],
        answered: Sequence[int],
        request_limit: int,
        now: Optional[float],
    ) -> List[int]:
        """The outgoing request list: ``rtr`` minus the answered requests,
        plus our own missing sequence numbers up to ``request_limit``."""
        answered_set = set(answered)
        kept = [seq for seq in rtr if seq not in answered_set]
        present = set(kept)
        for seq in self.buffer.missing_between(self.buffer.local_aru, request_limit):
            if seq not in present:
                kept.append(seq)
                present.add(seq)
                self.requests_made += 1
                if self.observer is not None:
                    self.observer.on_retransmit_requested(self.pid, seq, now=now)
        return kept

    def _deliver_ready(self) -> List[Effect]:
        """Deliver messages in total order as far as the rules allow.

        Agreed (and FIFO/Causal/Reliable) messages are deliverable once
        contiguous; a Safe message blocks the frontier until the token aru
        proves stability (``_safe_limit``), preserving the single total
        order across services.

        Observer note: ``on_deliver_batch`` deliberately does NOT fire here.
        Delivery is an application-visible act owned by the hosting layer
        (sim driver, membership controller, runtime node) — the engine
        only *proposes* deliveries via :class:`Deliver` effects, and the
        membership layer may roll them back mid-view-change.  The owning
        layer fires the hook, so observer delivery counts always match
        what the application (and the EVS checker) saw.
        """
        # Hot loop: runs once per received data message; locals avoid
        # repeated attribute loads and the SAFE check is an identity test
        # (the only service with requires_stability == True).
        messages = self.buffer._messages
        last_delivered = self._last_delivered
        safe_limit = self._safe_limit
        safe = _SAFE
        run: List[DataMessage] = []
        append = run.append
        while True:
            next_seq = last_delivered + 1
            message = messages.get(next_seq)
            if message is None:
                break
            if message.service is safe and next_seq > safe_limit:
                break
            last_delivered = next_seq
            append(message)
        delivered = len(run)
        if not delivered:
            return []
        self._last_delivered = last_delivered
        self.messages_delivered += delivered
        # The whole in-order run is one effect: the hosting layer delivers
        # it with a single hook/checker/callback round, not one per message.
        return [Deliver(tuple(run))]

    def _maybe_raise_token_priority(self, message: DataMessage) -> None:
        """Paper §III-D: decide when the token outranks data again."""
        # The pid/round test rejects almost every message, so it runs
        # before the config lookup (outcome is identical either way).
        if message.pid != self.predecessor or message.round <= self.round:
            return
        method = self.config.priority_method
        if method is TokenPriorityMethod.NEVER:
            return
        if method is TokenPriorityMethod.AGGRESSIVE or message.post_token:
            self.token_has_priority = True

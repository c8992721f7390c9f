"""The membership state machine: Operational / Gather / Commit / Recover.

The controller wraps an ordering participant (accelerated or original)
and supplies everything the paper's §III defers to the membership
algorithm: failure detection (token-loss timeout), consensus on the new
membership (join messages), state exchange (commit token), message
recovery across configuration changes, and delivery of transitional and
regular configurations per Extended Virtual Synchrony.

Like the ordering engines, the controller is sans-io: it consumes
messages and timer fires, and emits effects (including the core ordering
effects, which pass through).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from repro.core.config import ProtocolConfig
from repro.core.events import (
    CancelTimer,
    Deliver,
    DeliverConfiguration,
    Effect,
    SendControl,
    SendToken,
    SetTimer,
)
from repro.core.messages import DataMessage, DeliveryService
from repro.core.original import OriginalRingParticipant
from repro.core.participant import AcceleratedRingParticipant
from repro.core.token import RegularToken, initial_token
from repro.evs.configuration import Configuration
from repro.membership.messages import (
    BeaconMessage,
    CommitToken,
    JoinMessage,
    MemberInfo,
    RecoveredMessage,
    RecoveryStatus,
)
from repro.membership.params import MembershipTimeouts
from repro.membership.ring_id import (
    decode_ring_id,
    encode_ring_id,
    encode_transitional_id,
)

if TYPE_CHECKING:
    from repro.obs.observer import ProtocolObserver

TIMER_TOKEN_LOSS = "token_loss"
TIMER_JOIN = "join"
TIMER_CONSENSUS = "consensus"
TIMER_COMMIT = "commit"
TIMER_RECOVERY_STATUS = "recovery_status"
TIMER_RECOVERY = "recovery"
TIMER_BEACON = "beacon"
TIMER_SETTLE = "settle"
TIMER_GATHER_RESTART = "gather_restart"


class MemberState(Enum):
    OPERATIONAL = "operational"
    GATHER = "gather"
    COMMIT = "commit"
    RECOVER = "recover"


@dataclass
class _RecoveryState:
    """Per-view-change recovery bookkeeping."""

    new_ring_id: int
    members: Tuple[int, ...]
    infos: Dict[int, MemberInfo]
    my_old_ring: int
    old_members: Tuple[int, ...]  # members of my old ring present in the new ring
    low: int
    high: int
    #: Highest old-ring seq any old-ring survivor already delivered to its
    #: application.  All survivors must deliver up to here in the old
    #: *regular* configuration (even Safe messages: a survivor's delivery
    #: is proof that stability was established in the old ring) so the
    #: delivered set of the closed ring agrees across the transitional
    #: configuration — the EVS virtual-synchrony property.
    deliver_high: int = 0
    my_have: Set[int] = field(default_factory=set)
    peer_have: Dict[int, Set[int]] = field(default_factory=dict)
    complete_peers: Set[int] = field(default_factory=set)
    done: bool = False
    #: Self-healing bookkeeping: which retry round this recovery is on
    #: (0 = the initial attempt), and the round at which each old-ring
    #: peer last gossiped a status (for liveness suspicion).
    attempt: int = 0
    status_attempt: Dict[int, int] = field(default_factory=dict)
    suspects: Set[int] = field(default_factory=set)

    def available(self) -> Set[int]:
        union = set(self.my_have)
        for have in self.peer_have.values():
            union |= have
        return union

    def needed(self) -> Set[int]:
        return self.available() - self.my_have


class MembershipController:
    """Drives one participant through membership changes.

    Args:
        pid: this participant's id.
        accelerated: run the Accelerated Ring or the original protocol
            inside each installed ring.
        protocol_config: windows/priority configuration for the ordering
            engine installed in each ring.
        timeouts: membership timer intervals.
        observer: optional :class:`~repro.obs.observer.ProtocolObserver`;
            receives membership events here and is handed down to every
            ordering engine the controller installs.
        clock: optional zero-argument callable for observer timestamps,
            in the hosting layer's clock domain.
    """

    def __init__(
        self,
        pid: int,
        accelerated: bool = True,
        protocol_config: Optional[ProtocolConfig] = None,
        timeouts: Optional[MembershipTimeouts] = None,
        initial_ring_seq: int = 0,
        observer: Optional["ProtocolObserver"] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.pid = pid
        self.accelerated = accelerated
        self.protocol_config = (protocol_config or ProtocolConfig()).validate()
        self.timeouts = (timeouts or MembershipTimeouts()).validate()
        self.observer = observer
        self.clock = clock

        self.state = MemberState.GATHER
        self.ordering: Optional[AcceleratedRingParticipant] = None
        self.ring_config: Optional[Configuration] = None
        #: Highest ring sequence number ever observed.  A recovering
        #: process must restart from its pre-crash value (Totem keeps this
        #: on stable storage) so it can never reuse a ring id it has
        #: already been the representative of.
        self.highest_ring_seq = initial_ring_seq

        self._proc_set: Set[int] = {pid}
        self._fail_set: Set[int] = set()
        self._joins: Dict[int, Tuple[frozenset, frozenset]] = {}
        self._settle_armed = False
        self._consensus_strikes = 0
        self._expected_members: Optional[Tuple[int, ...]] = None
        self._rec: Optional[_RecoveryState] = None
        self._final_recovery: Optional[_RecoveryState] = None
        self._old_buffer = None  # previous ring's MessageBuffer, kept to help stragglers
        #: Straggler-help damping (see _on_status): when the current ring
        #: was installed, and when each peer was last sent a help reply.
        self._installed_at: Optional[float] = None
        self._help_sent: Dict[int, float] = {}
        self._past_rings: Set[int] = set()
        #: Ring ids whose recovery this controller has ever entered.  A
        #: commit token for one of these is a stale echo: ring ids are
        #: never reused (the ring sequence number is monotonic per
        #: representative), so accepting the echo would re-run recovery
        #: for a ring we already installed or abandoned — re-delivering
        #: its configurations and churning forever.  Bounded by the
        #: number of view changes, like ``_past_rings``.
        self._attempted_rings: Set[int] = set()
        self._stash: List[object] = []
        self._pre_ring_pending: Deque[Tuple[bytes, DeliveryService, Optional[float], Optional[int]]] = deque()
        # Deterministic per-pid jitter for the gather-phase timers.
        # Without it, symmetric standoffs (mutual fail verdicts after a
        # recovery) can phase-lock: every node restarts its gather in
        # lockstep and is reinfected by a peer whose own restart never
        # overlaps.  Real deployments get this jitter for free from OS
        # scheduling noise.
        self._rng = random.Random(pid * 7919 + 13)

        # Statistics.
        self.view_changes = 0
        self.joins_sent = 0
        self.recoveries_completed = 0
        self.recovery_retries = 0
        self.recovery_aborts = 0
        self.token_losses = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def ring_id(self) -> Optional[int]:
        return self.ring_config.config_id if self.ring_config else None

    @property
    def members(self) -> Tuple[int, ...]:
        return self.ring_config.sorted_members() if self.ring_config else ()

    def _jittered(self, delay: float) -> float:
        """Gather-phase timers get +/-25% deterministic jitter (see __init__)."""
        return delay * self._rng.uniform(0.75, 1.25)

    def _now(self) -> Optional[float]:
        return self.clock() if self.clock is not None else None

    def _set_state(self, new_state: MemberState) -> None:
        """Transition the membership state, notifying the observer.

        Same-state transitions (e.g. a gather restart) are reported too:
        they mark real protocol events, not bookkeeping noise.
        """
        old_state = self.state
        self.state = new_state
        if self.observer is not None:
            self.observer.on_membership_event(
                self.pid,
                "state_change",
                detail={"from": old_state.value, "to": new_state.value},
                now=self._now(),
            )

    def start(self) -> List[Effect]:
        """Begin membership: gather a first ring."""
        effects: List[Effect] = []
        self._enter_gather(effects)
        return effects

    def submit(
        self,
        payload: bytes = b"",
        service: DeliveryService = DeliveryService.AGREED,
        timestamp: Optional[float] = None,
        payload_size: Optional[int] = None,
    ) -> None:
        """Queue an application message; it survives view changes until
        it is eventually ordered in some ring."""
        if self.ordering is not None:
            self.ordering.submit(payload, service, timestamp, payload_size)
        else:
            self._pre_ring_pending.append((payload, service, timestamp, payload_size))

    def on_message(self, message: object) -> List[Effect]:
        """Dispatch one received message (any protocol or control type)."""
        effects: List[Effect] = []
        if isinstance(message, RegularToken):
            self._on_regular_token(message, effects)
        elif isinstance(message, DataMessage):
            self._on_data(message, effects)
        elif isinstance(message, JoinMessage):
            self._on_join(message, effects)
        elif isinstance(message, CommitToken):
            self._on_commit_token(message, effects)
        elif isinstance(message, RecoveredMessage):
            self._on_recovered(message, effects)
        elif isinstance(message, RecoveryStatus):
            self._on_status(message, effects)
        elif isinstance(message, BeaconMessage):
            self._on_beacon(message, effects)
        else:
            raise TypeError(f"unknown message type {type(message).__name__}")
        return effects

    def on_timer(self, name: str) -> List[Effect]:
        """Handle a timer the controller previously armed via SetTimer."""
        effects: List[Effect] = []
        if name == TIMER_TOKEN_LOSS:
            if self.state is MemberState.OPERATIONAL:
                self.token_losses += 1
                if self.observer is not None:
                    self.observer.on_membership_event(
                        self.pid,
                        "token_loss",
                        detail={"ring_id": self.ring_id},
                        now=self._now(),
                    )
                self._enter_gather(effects)
        elif name == TIMER_JOIN:
            if self.state is MemberState.GATHER:
                self._send_join(effects)
                effects.append(SetTimer(TIMER_JOIN, self._jittered(self.timeouts.join_interval)))
        elif name == TIMER_CONSENSUS:
            if self.state is MemberState.GATHER:
                self._consensus_timeout(effects)
        elif name == TIMER_COMMIT:
            if self.state is MemberState.COMMIT:
                self._enter_gather(effects)
        elif name == TIMER_RECOVERY_STATUS:
            if self.state is MemberState.RECOVER:
                self._recovery_gossip(effects)
                effects.append(
                    SetTimer(TIMER_RECOVERY_STATUS, self.timeouts.recovery_status_interval)
                )
        elif name == TIMER_RECOVERY:
            # Idempotent by construction: a stray or deferred firing after
            # the recovery completed or aborted finds state != RECOVER (or
            # no recovery in flight) and is a no-op.
            if self.state is MemberState.RECOVER and self._rec is not None:
                self._on_recovery_timeout(effects)
        elif name == TIMER_BEACON:
            if self.state is MemberState.OPERATIONAL:
                effects.append(
                    SendControl(BeaconMessage(sender=self.pid, ring_id=self.ring_id))
                )
                effects.append(SetTimer(TIMER_BEACON, self.timeouts.beacon_interval))
        elif name == TIMER_SETTLE:
            self._settle_armed = False
            if self.state is MemberState.GATHER:
                self._commit_if_consensus(effects)
        elif name == TIMER_GATHER_RESTART:
            if self.state is MemberState.GATHER:
                # The gather stalled (e.g. contradictory fail verdicts from
                # interleaved attempts).  Start over with a clean slate —
                # fail verdicts are re-derived from scratch.
                self._enter_gather(effects)
        else:
            raise ValueError(f"unknown timer {name!r}")
        return effects

    # ------------------------------------------------------------------
    # Operational: route through the ordering engine
    # ------------------------------------------------------------------

    @property
    def token_has_priority(self) -> bool:
        return self.ordering.token_has_priority if self.ordering else True

    def _participant_class(self) -> Type[AcceleratedRingParticipant]:
        return AcceleratedRingParticipant if self.accelerated else OriginalRingParticipant

    def _translate(self, core_effects: Sequence[Effect], effects: List[Effect]) -> None:
        """Attribute the engine's deliveries to the installed ring (its
        id is stamped on the engine's own effect); wire effects pass
        through, local notifications (``Stable``) drop."""
        assert self.ring_config is not None
        config_id = self.ring_config.config_id
        observer = self.observer
        for effect in core_effects:
            messages = effect.messages
            if messages:
                effect.config_id = effect.origin_ring = config_id
                effects.append(effect)
                if observer is not None:
                    observer.on_deliver_batch(self.pid, messages, now=self._now())
            elif effect.on_wire:
                effects.append(effect)

    def _withhold_deliveries(
        self, core_effects: Sequence[Effect], effects: List[Effect]
    ) -> None:
        """While not Operational, recovery owns delivery attribution:
        forward only the engine's wire effects, and undo the delivery
        frontier advance.  The engine has no un-deliver operation, so
        its frontier is rolled back instead."""
        assert self.ordering is not None
        seqs = []
        for effect in core_effects:
            if effect.on_wire:
                effects.append(effect)
                continue
            messages = effect.messages
            if messages:
                seqs.append(messages[0].seq)
        if seqs:
            self.ordering.rollback_delivery_frontier(min(seqs) - 1)

    def _on_regular_token(self, token: RegularToken, effects: List[Effect]) -> None:
        if self.state is MemberState.OPERATIONAL and token.ring_id == self.ring_id:
            assert self.ordering is not None
            self._translate(self.ordering.on_token(token), effects)
            # Re-arms the live timer: SetTimer replaces a name's deadline.
            effects.append(SetTimer(TIMER_TOKEN_LOSS, self.timeouts.token_loss))
            return
        if self._rec is not None and token.ring_id == self._rec.new_ring_id:
            self._stash.append(token)
            return
        if token.ring_id in self._past_rings or token.ring_id == self.ring_id:
            return  # stale traffic from a ring we have left (or are leaving)
        # Foreign ring: evidence of a partition healing — re-gather.
        if self.state is MemberState.OPERATIONAL:
            self._enter_gather(effects)

    def _on_data(self, message: DataMessage, effects: List[Effect]) -> None:
        if self.ordering is not None and message.ring_id == self.ordering.ring_id:
            # Accept data for the current ring in every state: during
            # Gather/Commit it still fills recovery holes.
            core = self.ordering.on_data(message)
            if self.state is MemberState.OPERATIONAL:
                self._translate(core, effects)
            else:
                self._withhold_deliveries(core, effects)
            return
        if self._rec is not None and message.ring_id == self._rec.new_ring_id:
            self._stash.append(message)
            return
        if message.ring_id in self._past_rings:
            return
        if self.state is MemberState.OPERATIONAL:
            self._enter_gather(effects)

    def on_data_batch(self, messages: Sequence[DataMessage]) -> List[Effect]:
        """Handle one coalesced datagram's worth of data messages.

        The homogeneous case (every message for the current ring — the
        only batch a peer on the same ring ever emits) routes through
        the ordering engine's batch entry point so delivery runs stay
        batched end to end; anything else (mixed or foreign rings, e.g.
        a batch straggling across a configuration change) falls back to
        the per-message path, which already handles stashing, stale
        rings, and gather triggers.
        """
        effects: List[Effect] = []
        ordering = self.ordering
        if ordering is not None and all(
            m.ring_id == ordering.ring_id for m in messages
        ):
            core = ordering.on_data_batch(messages)
            if self.state is MemberState.OPERATIONAL:
                self._translate(core, effects)
            else:
                self._withhold_deliveries(core, effects)
            return effects
        for message in messages:
            self._on_data(message, effects)
        return effects

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------

    def _enter_gather(
        self, effects: List[Effect], pre_failed: Optional[Set[int]] = None
    ) -> None:
        self._set_state(MemberState.GATHER)
        self._expected_members = None
        self._rec = None
        self._proc_set = {self.pid}
        if self.ring_config is not None:
            self._proc_set |= set(self.ring_config.members)
        # ``pre_failed`` seeds the fail set: peers an aborted recovery
        # proved unresponsive start this gather already condemned, so
        # consensus does not stall waiting for them again (graceful
        # degradation — the candidate set shrinks instead of hanging).
        self._fail_set = set(pre_failed or ()) - {self.pid}
        self._joins = {}
        self._settle_armed = False
        self._consensus_strikes = 0
        effects.append(CancelTimer(TIMER_SETTLE))
        effects.append(CancelTimer(TIMER_TOKEN_LOSS))
        effects.append(CancelTimer(TIMER_COMMIT))
        effects.append(CancelTimer(TIMER_RECOVERY_STATUS))
        effects.append(CancelTimer(TIMER_RECOVERY))
        effects.append(CancelTimer(TIMER_BEACON))
        self._send_join(effects)
        effects.append(SetTimer(TIMER_JOIN, self._jittered(self.timeouts.join_interval)))
        effects.append(SetTimer(TIMER_CONSENSUS, self._jittered(self.timeouts.consensus_timeout)))
        effects.append(
            SetTimer(TIMER_GATHER_RESTART, self._jittered(self.timeouts.consensus_timeout * 4))
        )
        # No immediate consensus check: a lone candidate must wait out the
        # consensus timeout before forming a singleton ring, giving joins
        # from peers (including the one that triggered this gather) a
        # chance to arrive first.

    def _send_join(self, effects: List[Effect]) -> None:
        join = JoinMessage(
            sender=self.pid,
            proc_set=frozenset(self._proc_set),
            fail_set=frozenset(self._fail_set),
            ring_seq=self.highest_ring_seq,
        )
        self.joins_sent += 1
        effects.append(SendControl(join))

    def _on_join(self, join: JoinMessage, effects: List[Effect]) -> None:
        if join.sender == self.pid:
            return
        if self.state is MemberState.OPERATIONAL:
            # Stale joins from the gather that produced the current ring
            # must not tear it down again.  Only joins from our *members*
            # can be such stragglers; a member in genuine distress has seen
            # this ring, so its ring_seq is >= ours.  A join from a
            # non-member is always a real merge request (a recovered
            # process or a foreign partition), whatever its epoch.
            if join.sender in self.ring_config.members:
                my_seq, _rep = decode_ring_id(self.ring_id)
                if join.ring_seq < my_seq:
                    return
            self._enter_gather(effects)
        if self.state is MemberState.RECOVER and self._rec is not None:
            # A join from a member of the ring under recovery, at or past
            # that ring's epoch, is explicit evidence the exchange is dead:
            # joins are only sent while gathering, so the sender abandoned
            # this recovery and can never answer its status exchange.
            # Abort now — cheaper and faster than burning the whole retry
            # budget on a peer that told us it left.  (Joins from before
            # the commit carry an older ring_seq and do not trigger this.)
            new_seq, _rep = decode_ring_id(self._rec.new_ring_id)
            if join.sender in self._rec.members and join.ring_seq >= new_seq:
                self._abort_recovery(
                    self._rec, effects, reason="peer_regathered"
                )
                # State is Gather now; fall through and process the join.
        if self.state is not MemberState.GATHER:
            return  # committing/recovering: let timeouts sort out failures
        # Epoch scoping: fail verdicts and views from an older epoch are
        # dead history — a ring has formed since they were uttered.
        # Accepting them (or even retaliating against them) lets abandoned
        # gathers poison fresh ones indefinitely.  The sender learns the
        # current epoch from our next join and re-sends at it.
        if join.ring_seq < self.highest_ring_seq:
            return
        self.highest_ring_seq = max(self.highest_ring_seq, join.ring_seq)
        # Totem's anti-poisoning rules: a processor we have declared failed
        # cannot influence this gather, and a processor that declares *us*
        # failed is declared failed in return (the network bifurcates into
        # two consistent candidate sets instead of stalling forever) — its
        # verdicts are not merged.
        if join.sender in self._fail_set:
            return
        if self.pid in join.fail_set:
            self._fail_set.add(join.sender)
            self._joins.pop(join.sender, None)
            self._send_join(effects)
            self._check_consensus(effects)
            return
        self._joins[join.sender] = (join.proc_set, join.fail_set)
        merged_proc = self._proc_set | set(join.proc_set) | {join.sender}
        merged_fail = (self._fail_set | set(join.fail_set)) - {self.pid}
        if merged_proc != self._proc_set or merged_fail != self._fail_set:
            self._proc_set = merged_proc
            self._fail_set = merged_fail
            self._send_join(effects)
            effects.append(CancelTimer(TIMER_CONSENSUS))
            effects.append(SetTimer(TIMER_CONSENSUS, self._jittered(self.timeouts.consensus_timeout)))
            if self._settle_armed:
                self._settle_armed = False
                effects.append(CancelTimer(TIMER_SETTLE))
        self._check_consensus(effects)

    def _candidates(self) -> Set[int]:
        return self._proc_set - self._fail_set

    def _consensus_holds(self) -> bool:
        candidates = self._candidates()
        if not candidates or candidates == {self.pid}:
            return False
        my_view = (frozenset(self._proc_set), frozenset(self._fail_set))
        return all(
            self._joins.get(peer) == my_view
            for peer in candidates
            if peer != self.pid
        )

    def _check_consensus(self, effects: List[Effect]) -> None:
        """When everyone agrees, wait a short settle window before
        committing: during merges, joins from slightly-later arrivals
        would otherwise race a premature smaller ring into existence."""
        if not self._consensus_holds():
            return
        if not self._settle_armed:
            self._settle_armed = True
            effects.append(SetTimer(TIMER_SETTLE, self._jittered(self.timeouts.consensus_settle)))

    def _commit_if_consensus(self, effects: List[Effect]) -> None:
        if self._consensus_holds():
            self._enter_commit(sorted(self._candidates()), effects)

    def _consensus_timeout(self, effects: List[Effect]) -> None:
        # Patience: declare a candidate failed only on the second
        # consecutive timeout without a join from it.  A live peer can be
        # legitimately silent for one window while it finishes committing
        # or recovering a competing proposal (joins are only sent while
        # gathering); condemning it on the first timeout seeds mutual
        # fail verdicts that take far longer to clear than the wait.
        self._consensus_strikes += 1
        if self._consensus_strikes >= 2:
            unresponsive = {
                peer
                for peer in self._candidates()
                if peer != self.pid and peer not in self._joins
            }
            if unresponsive:
                self._fail_set |= unresponsive
                self._joins = {
                    peer: view
                    for peer, view in self._joins.items()
                    if peer not in unresponsive
                }
        self._send_join(effects)
        effects.append(SetTimer(TIMER_CONSENSUS, self._jittered(self.timeouts.consensus_timeout)))
        if self._candidates() == {self.pid}:
            # Alone after the wait: form a singleton ring.
            self._form_singleton(effects)
        else:
            self._check_consensus(effects)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _my_info(self) -> MemberInfo:
        if self.ordering is None:
            return MemberInfo(
                old_ring_id=encode_ring_id(0, self.pid), old_aru=0, high_seq=0
            )
        # ``last_delivered`` is the application-visible frontier: while
        # not Operational the controller rolls speculative deliveries
        # back (_withhold_deliveries), so this is exactly what the local
        # application saw from the old ring.
        return MemberInfo(
            old_ring_id=self.ordering.ring_id,
            old_aru=self.ordering.local_aru,
            high_seq=self.ordering.buffer.max_seq,
            last_delivered=self.ordering.last_delivered,
        )

    def _form_singleton(self, effects: List[Effect]) -> None:
        new_seq = self.highest_ring_seq + 1
        ring_id = encode_ring_id(new_seq, self.pid)
        self.highest_ring_seq = new_seq
        token = CommitToken(ring_id=ring_id, members=(self.pid,))
        token.infos[self.pid] = self._my_info()
        effects.append(CancelTimer(TIMER_JOIN))
        effects.append(CancelTimer(TIMER_CONSENSUS))
        self._enter_recover(token, effects)

    def _enter_commit(self, members: List[int], effects: List[Effect]) -> None:
        self._set_state(MemberState.COMMIT)
        self._expected_members = tuple(members)
        effects.append(CancelTimer(TIMER_GATHER_RESTART))
        effects.append(CancelTimer(TIMER_JOIN))
        effects.append(CancelTimer(TIMER_CONSENSUS))
        effects.append(SetTimer(TIMER_COMMIT, self.timeouts.commit_timeout))
        representative = members[0]
        if self.pid != representative:
            return  # wait for the commit token
        new_seq = self.highest_ring_seq + 1
        ring_id = encode_ring_id(new_seq, representative)
        self.highest_ring_seq = new_seq
        token = CommitToken(ring_id=ring_id, members=tuple(members))
        token.infos[self.pid] = self._my_info()
        effects.append(SendControl(token, destination=token.successor_of(self.pid)))

    def _on_commit_token(self, token: CommitToken, effects: List[Effect]) -> None:
        if self.pid not in token.members:
            return
        if (
            token.ring_id == self.ring_id
            or token.ring_id in self._past_rings
            or token.ring_id in self._attempted_rings
        ):
            # A stale echo still circulating for a ring we already
            # installed, left, or abandoned mid-recovery.  Ring ids are
            # never reused, so this can only be dead history; accepting it
            # would re-run recovery (re-delivering its configurations) in
            # an endless install/teardown churn loop.
            return
        if self.state not in (MemberState.GATHER, MemberState.COMMIT):
            return  # e.g. the second-pass echo while already recovering
        if self.state is MemberState.GATHER and set(token.members) != self._candidates():
            return  # we have not agreed to this membership
        if (
            self.state is MemberState.COMMIT
            and self._expected_members is not None
            and tuple(token.members) != self._expected_members
        ):
            return  # stale commit token from an earlier proposal
        token = token.copy()
        seq, _rep = decode_ring_id(token.ring_id)
        self.highest_ring_seq = max(self.highest_ring_seq, seq)
        if self.pid not in token.infos:
            token.infos[self.pid] = self._my_info()
        self._set_state(MemberState.COMMIT)
        effects.append(CancelTimer(TIMER_JOIN))
        effects.append(CancelTimer(TIMER_CONSENSUS))
        effects.append(CancelTimer(TIMER_COMMIT))
        effects.append(SetTimer(TIMER_COMMIT, self.timeouts.commit_timeout))
        effects.append(
            SendControl(token.copy(), destination=token.successor_of(self.pid))
        )
        if token.complete:
            self._enter_recover(token, effects)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _enter_recover(self, token: CommitToken, effects: List[Effect]) -> None:
        self._set_state(MemberState.RECOVER)
        self._attempted_rings.add(token.ring_id)
        effects.append(CancelTimer(TIMER_COMMIT))
        effects.append(CancelTimer(TIMER_GATHER_RESTART))
        effects.append(CancelTimer(TIMER_JOIN))
        my_info = token.infos[self.pid]
        old_ring = my_info.old_ring_id
        old_members = tuple(
            member
            for member in token.members
            if token.infos[member].old_ring_id == old_ring
        )
        low = min(token.infos[m].old_aru for m in old_members)
        high = max(token.infos[m].high_seq for m in old_members)
        # The commit token is identical at every member, so every old-ring
        # survivor computes the same delivery split point — the basis of
        # their agreement on the closed ring's delivered set.
        deliver_high = max(token.infos[m].last_delivered for m in old_members)
        rec = _RecoveryState(
            new_ring_id=token.ring_id,
            members=token.members,
            infos=dict(token.infos),
            my_old_ring=old_ring,
            old_members=old_members,
            low=low,
            high=high,
            deliver_high=deliver_high,
        )
        if self.ordering is not None:
            rec.my_have = {
                seq
                for seq in range(low + 1, high + 1)
                if self.ordering.buffer.get(seq) is not None
            }
        rec.done = not rec.needed()
        self._rec = rec
        if self.observer is not None:
            self.observer.on_recovery_started(
                self.pid,
                detail={
                    "ring_id": rec.new_ring_id,
                    "old_ring_id": rec.my_old_ring,
                    "old_members": sorted(rec.old_members),
                    "window": [rec.low, rec.high],
                    "deliver_high": rec.deliver_high,
                },
                now=self._now(),
            )
        self._flood(rec, rec.my_have, effects)
        self._send_status(rec, effects)
        effects.append(
            SetTimer(TIMER_RECOVERY_STATUS, self.timeouts.recovery_status_interval)
        )
        effects.append(SetTimer(TIMER_RECOVERY, self.timeouts.recovery_timeout))
        self._maybe_finalize(effects)

    def _flood(self, rec: _RecoveryState, seqs: Set[int], effects: List[Effect]) -> None:
        if self.ordering is None:
            return
        for seq in sorted(seqs):
            message = self.ordering.buffer.get(seq)
            if message is not None:
                effects.append(
                    SendControl(RecoveredMessage(rec.my_old_ring, message))
                )

    def _send_status(self, rec: _RecoveryState, effects: List[Effect]) -> None:
        effects.append(
            SendControl(
                RecoveryStatus(
                    sender=self.pid,
                    new_ring_id=rec.new_ring_id,
                    old_ring_id=rec.my_old_ring,
                    have=tuple(sorted(rec.my_have)),
                    complete=rec.done,
                )
            )
        )

    def _on_recovered(self, message: RecoveredMessage, effects: List[Effect]) -> None:
        rec = self._rec
        if (
            self.state is not MemberState.RECOVER
            or rec is None
            or message.old_ring_id != rec.my_old_ring
            or self.ordering is None
        ):
            return
        if not (rec.low < message.message.seq <= rec.high):
            return
        if self.ordering.buffer.insert(message.message):
            rec.my_have.add(message.message.seq)
            if not rec.done and not rec.needed():
                rec.done = True
                self._send_status(rec, effects)
            self._maybe_finalize(effects)

    def _on_status(self, status: RecoveryStatus, effects: List[Effect]) -> None:
        rec = self._rec
        if self.state is MemberState.RECOVER and rec is not None:
            if status.new_ring_id != rec.new_ring_id:
                return
            if status.old_ring_id != rec.my_old_ring:
                return  # another old ring's exchange; not our concern
            rec.peer_have[status.sender] = set(status.have)
            # Liveness: any status is proof of life for this retry round.
            rec.status_attempt[status.sender] = rec.attempt
            rec.suspects.discard(status.sender)
            if status.complete:
                rec.complete_peers.add(status.sender)
            else:
                rec.complete_peers.discard(status.sender)
            if not rec.done and not rec.needed():
                rec.done = True
                self._send_status(rec, effects)
            self._maybe_finalize(effects)
            return
        # Help stragglers after we have installed the new ring: a member
        # still gossiping recovery status for our ring missed our final
        # status (e.g. it was still in Commit when we sent it) — re-send
        # it, and re-flood anything it lacks.
        if (
            self.state is MemberState.OPERATIONAL
            and status.new_ring_id == self.ring_id
            and status.sender != self.pid
            and self._final_recovery is not None
            and status.old_ring_id == self._final_recovery.my_old_ring
        ):
            # Echo control.  An operational member answering a status is a
            # positive-feedback loop if the answer is itself a status every
            # other operational member answers: multicast replies made each
            # status seen by the other N-1 members spawn N-1 more — an
            # exponential storm (for N > 2) that starved the token on the
            # shared control port until the token-loss timer split the
            # ring.  Three dampers make help loop-free while keeping a real
            # straggler unblocked: the reply goes unicast to the straggler
            # (operational peers never see it, so never re-answer it), each
            # peer is helped at most once per status interval (the
            # straggler's own re-gossip rate, so nothing is lost), and help
            # stops recovery_timeout after install — by then any straggler
            # has timed out into a fresh gather and needs a join exchange,
            # not an old status.
            now = self._now()
            if now is not None:
                if (
                    self._installed_at is not None
                    and now - self._installed_at > self.timeouts.recovery_timeout
                ):
                    return
                last = self._help_sent.get(status.sender)
                if (
                    last is not None
                    and now - last < self.timeouts.recovery_status_interval
                ):
                    return
                self._help_sent[status.sender] = now
            final = self._final_recovery
            missing = final.my_have - set(status.have)
            if missing and self._old_buffer is not None:
                for seq in sorted(missing):
                    message = self._old_buffer.get(seq)
                    if message is not None:
                        effects.append(
                            SendControl(
                                RecoveredMessage(final.my_old_ring, message),
                                destination=status.sender,
                            )
                        )
            effects.append(
                SendControl(
                    RecoveryStatus(
                        sender=self.pid,
                        new_ring_id=final.new_ring_id,
                        old_ring_id=final.my_old_ring,
                        have=tuple(sorted(final.my_have)),
                        complete=True,
                    ),
                    destination=status.sender,
                )
            )

    def _on_beacon(self, beacon: BeaconMessage, effects: List[Effect]) -> None:
        # Beacons carry the sender's ring epoch; adopting it ensures our
        # next joins are not dismissed as stale by that ring's members.
        beacon_seq, _rep = decode_ring_id(beacon.ring_id)
        self.highest_ring_seq = max(self.highest_ring_seq, beacon_seq)
        if self.state is not MemberState.OPERATIONAL:
            return
        if beacon.ring_id == self.ring_id or beacon.ring_id in self._past_rings:
            return
        # A foreign operational ring exists: merge.
        self._enter_gather(effects)

    def _recovery_gossip(self, effects: List[Effect]) -> None:
        rec = self._rec
        assert rec is not None
        self._send_status(rec, effects)
        # Re-flood what known peers are missing (unknown peers will ask by
        # sending their first status).
        known = [rec.peer_have[p] for p in rec.old_members if p in rec.peer_have and p != self.pid]
        if known:
            missing_somewhere = set()
            for have in known:
                missing_somewhere |= rec.my_have - have
            self._flood(rec, missing_somewhere, effects)

    # -- self-healing: retry / backoff / abort-and-regather ------------

    def _recovery_backoff_delay(self, attempt: int) -> float:
        """Interval before retry ``attempt`` expires: exponential backoff
        from ``recovery_timeout``, capped, with deterministic +/- jitter
        (applied after the cap) to desynchronize retry storms."""
        timeouts = self.timeouts
        base = min(
            timeouts.recovery_timeout * (timeouts.recovery_backoff ** attempt),
            timeouts.recovery_cap,
        )
        jitter = timeouts.recovery_jitter
        if jitter:
            base *= self._rng.uniform(1.0 - jitter, 1.0 + jitter)
        return base

    def _recovery_suspects(self, rec: _RecoveryState) -> Set[int]:
        """Old-ring peers silent for >= ``recovery_suspect_after``
        consecutive retry rounds of this recovery."""
        threshold = self.timeouts.recovery_suspect_after
        return {
            peer
            for peer in rec.old_members
            if peer != self.pid
            and rec.attempt - rec.status_attempt.get(peer, 0) >= threshold
        }

    def _on_recovery_timeout(self, effects: List[Effect]) -> None:
        """A recovery round expired without finalizing.

        Instead of tearing the exchange down on the first deadline (the
        legacy behaviour) the controller retries: it re-gossips status and
        re-floods what known peers are missing, backing off exponentially
        with jitter, and tracks which peers have gone quiet.  Only when
        the retry budget is exhausted does it abort back to Gather — with
        the quiet peers pre-condemned, so the next membership shrinks
        around them rather than stalling on them again.
        """
        rec = self._rec
        assert rec is not None
        rec.attempt += 1
        rec.suspects = self._recovery_suspects(rec)
        if rec.attempt > self.timeouts.recovery_retries:
            self._abort_recovery(rec, effects)
            return
        self.recovery_retries += 1
        delay = self._recovery_backoff_delay(rec.attempt)
        if self.observer is not None:
            self.observer.on_recovery_retry(
                self.pid,
                detail={
                    "ring_id": rec.new_ring_id,
                    "attempt": rec.attempt,
                    "retries_left": self.timeouts.recovery_retries - rec.attempt,
                    "next_delay": delay,
                    "missing": len(rec.needed()),
                    "suspects": sorted(rec.suspects),
                },
                now=self._now(),
            )
        # Unanswered flood/status round: say it all again, louder.  The
        # status re-announces our holdings (prompting peers to flood what
        # we lack); the flood re-sends everything known peers lack.
        self._recovery_gossip(effects)
        effects.append(SetTimer(TIMER_RECOVERY, delay))

    def _abort_recovery(
        self,
        rec: _RecoveryState,
        effects: List[Effect],
        reason: str = "retry_budget",
    ) -> None:
        """Give up on this exchange and regather — because the retry
        budget ran out, or because a recovery peer demonstrably abandoned
        the exchange (``reason="peer_regathered"``).

        Never finalizes a torn state — no configuration or message is
        delivered here.  Suspected-dead peers seed the new gather's fail
        set, shrinking the candidate set (graceful degradation)."""
        self.recovery_aborts += 1
        if self.observer is not None:
            self.observer.on_recovery_aborted(
                self.pid,
                detail={
                    "ring_id": rec.new_ring_id,
                    "attempts": rec.attempt,
                    "missing": len(rec.needed()),
                    "suspects": sorted(rec.suspects),
                    "reason": reason,
                },
                now=self._now(),
            )
        self._enter_gather(effects, pre_failed=rec.suspects)

    def _maybe_finalize(self, effects: List[Effect]) -> None:
        rec = self._rec
        assert rec is not None
        if not rec.done:
            return
        for peer in rec.old_members:
            if peer != self.pid and peer not in rec.complete_peers:
                return
        self._finalize_recovery(rec, effects)

    def _deliver_recovered(
        self, message: DataMessage, rec: _RecoveryState, effects: List[Effect]
    ) -> None:
        """Deliver one old-ring message, attributed to the ring that
        ordered it (recovery may skip holes, so each is a run of one)."""
        run = (message,)
        effects.append(Deliver(run, rec.my_old_ring, rec.my_old_ring))
        if self.observer is not None:
            self.observer.on_deliver_batch(self.pid, run, now=self._now())

    def _finalize_recovery(self, rec: _RecoveryState, effects: List[Effect]) -> None:
        """Deliver remaining old-ring messages per EVS, install the ring."""
        old_config = self.ring_config
        if self.ordering is not None:
            ordering = self.ordering
            # Phase 1: messages still deliverable in the old regular
            # configuration — the contiguous prefix up to the first
            # undelivered Safe message whose old-config stability cannot
            # be proven, or the first permanent gap.  The split point must
            # be *agreed*, not local: up to ``rec.deliver_high`` (the
            # maximum delivery frontier on the commit token) some old-ring
            # member already delivered every message — including Safe ones,
            # whose delivery is itself the stability proof — so every
            # survivor delivers through it in the regular configuration.
            # Stopping instead at the local first-undelivered-Safe made
            # survivors disagree on the closed ring's delivered set (the
            # seed-7 EVS violation pinned in
            # tests/integration/test_evs_regressions.py).
            seq = ordering.last_delivered + 1
            while seq <= rec.high:
                message = ordering.buffer.get(seq)
                if message is None:
                    break
                if seq > rec.deliver_high and message.service.requires_stability:
                    break
                self._deliver_recovered(message, rec, effects)
                seq += 1
            # Transitional configuration: my old ring's survivors.
            if old_config is not None:
                effects.append(
                    DeliverConfiguration(
                        Configuration.transitional_of(
                            encode_transitional_id(rec.my_old_ring, rec.new_ring_id),
                            rec.old_members,
                            closes=rec.my_old_ring,
                        )
                    )
                )
            # Phase 2: everything else recovered, gaps skipped (EVS allows
            # delivery past holes only in the transitional configuration).
            while seq <= rec.high:
                message = ordering.buffer.get(seq)
                if message is not None:
                    self._deliver_recovered(message, rec, effects)
                seq += 1
            self._old_buffer = ordering.buffer
            self._past_rings.add(ordering.ring_id)

        # Install the new ring.
        members = sorted(rec.members)
        new_config = Configuration.regular(rec.new_ring_id, members)
        effects.append(DeliverConfiguration(new_config))
        carried = self.ordering.pending if self.ordering is not None else deque()
        participant = self._participant_class()(
            pid=self.pid,
            ring=members,
            config=self.protocol_config,
            ring_id=rec.new_ring_id,
            observer=self.observer,
            clock=self.clock,
        )
        participant.pending = carried
        while self._pre_ring_pending:
            payload, service, timestamp, size = self._pre_ring_pending.popleft()
            participant.submit(payload, service, timestamp, size)
        self.ordering = participant
        self.ring_config = new_config
        self._set_state(MemberState.OPERATIONAL)
        self.view_changes += 1
        self.recoveries_completed += 1
        if self.observer is not None:
            now = self._now()
            self.observer.on_recovery_completed(
                self.pid,
                detail={
                    "ring_id": rec.new_ring_id,
                    "attempts": rec.attempt,
                    "members": list(members),
                },
                now=now,
            )
            self.observer.on_membership_event(
                self.pid,
                "ring_installed",
                detail={"ring_id": rec.new_ring_id, "members": list(members)},
                now=now,
            )
            self.observer.on_membership_event(
                self.pid,
                "view_change",
                detail={"ring_id": rec.new_ring_id},
                now=now,
            )
        self._final_recovery = rec
        self._installed_at = self._now()
        self._help_sent = {}
        self._rec = None
        effects.append(CancelTimer(TIMER_RECOVERY_STATUS))
        effects.append(CancelTimer(TIMER_RECOVERY))
        effects.append(SetTimer(TIMER_TOKEN_LOSS, self.timeouts.token_loss))
        effects.append(SetTimer(TIMER_BEACON, self.timeouts.beacon_interval))
        if self.pid == members[0]:
            effects.append(
                SendToken(initial_token(rec.new_ring_id), destination=self.pid)
            )
        # Replay traffic that raced ahead of installation.
        stash, self._stash = self._stash, []
        for message in stash:
            effects.extend(self.on_message(message))

"""The membership state machine, as one transition table.

The controller wraps an ordering participant (accelerated or original)
and supplies everything the paper's §III defers to the membership
algorithm: failure detection (token-loss timeout), consensus on the new
membership (join messages), state exchange (commit token), message
recovery across configuration changes, and delivery of transitional and
regular configurations per Extended Virtual Synchrony.

Like the ordering engines, the controller is sans-io: it consumes
messages and timer fires, and emits effects (including the core ordering
effects, which pass through).

What each (state, event) pair does is said in one place, the tables at
the bottom of this module (docs/PROTOCOL.md §6 renders them): ``TABLE``
maps a pair to its :class:`Row`, ``DROPPED`` lists the pairs dropped by
rule, and every pair is in exactly one of the two.  ``TRANSITIONS`` has
the nine legal edges and what ``_enter`` — the only way to change state
— cancels on each.  The ``QUIRK_*`` names mark where something outlives
the state that owns it: accidents of the scattered form this table
replaced, kept so that it behaves exactly as its predecessor did.
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
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.buffer import MessageBuffer
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

#: Event key of :meth:`MembershipController.on_data_batch` (the other
#: events are the message classes and the timer names).
DATA_BATCH = (DataMessage,)


class MemberState(Enum):
    OPERATIONAL = "operational"
    GATHER = "gather"
    COMMIT = "commit"
    RECOVER = "recover"


_O, _G, _C, _R = MemberState

#: The timers each state owns: armed only while in it, cancelled by
#: ``_enter`` on the way out (``TRANSITIONS`` has the exceptions).
OWNS: Dict[MemberState, Tuple[str, ...]] = {
    _G: (TIMER_JOIN, TIMER_CONSENSUS, TIMER_GATHER_RESTART, TIMER_SETTLE),
    _C: (TIMER_COMMIT,),
    _R: (TIMER_RECOVERY_STATUS, TIMER_RECOVERY),
    _O: (TIMER_TOKEN_LOSS, TIMER_BEACON),
}

#: ``settle`` is not cancelled when Gather is left for Commit or Recover:
#: it fires wherever the controller then is and only clears a flag.
QUIRK_SETTLE = "settle-survives-gather"
#: ``gather_restart`` is not cancelled when a *received* commit token
#: takes Gather to Commit: it is ignored if it fires there.
QUIRK_GATHER_RESTART = "gather-restart-survives-received-commit"
#: The stash is not cleared when the recovery it was kept for aborts: the
#: next install replays it, and a token of the abandoned ring, a foreign
#: ring by then, sends the new ring straight back to Gather.
QUIRK_STASH = "stash-survives-aborted-recovery"

#: The legal edges, each with the timers ``_enter`` cancels on it: what
#: the state being left owns, but for the survivors the quirks name —
#: which end where a later edge cancels them instead.
TRANSITIONS: Dict[Tuple[MemberState, MemberState], Tuple[str, ...]] = {
    (_G, _G): OWNS[_G],
    (_G, _C): (TIMER_JOIN, TIMER_CONSENSUS, TIMER_GATHER_RESTART),  # not settle: QUIRK_SETTLE
    (_G, _R): (TIMER_JOIN, TIMER_CONSENSUS, TIMER_GATHER_RESTART),  # not settle: QUIRK_SETTLE
    (_C, _C): OWNS[_C],
    (_C, _R): OWNS[_C] + (TIMER_GATHER_RESTART,),
    (_C, _G): OWNS[_C] + (TIMER_GATHER_RESTART, TIMER_SETTLE),
    (_R, _O): OWNS[_R],
    (_R, _G): OWNS[_R] + (TIMER_SETTLE,),
    (_O, _G): OWNS[_O] + (TIMER_SETTLE,),
}


@dataclass
class _RecoveryState:
    """Per-view-change recovery bookkeeping."""

    new_ring_id: int
    members: Tuple[int, ...]
    my_old_ring: int
    old_members: Tuple[int, ...]  # members of my old ring present in the new ring
    low: int
    high: int
    #: My old ring's message buffer (``None``: there was no old ring):
    #: what recovery floods from and fills, kept after the install to
    #: help stragglers.
    buffer: Optional[MessageBuffer]
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

    def needed(self) -> Set[int]:
        """What some peer holds and we do not."""
        return set().union(*self.peer_have.values()) - self.my_have


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
        #: Every token visit re-arms the same timer with the same delay
        #: (``timeouts`` is never reassigned), so one effect serves them all.
        self._token_loss_timer = SetTimer(TIMER_TOKEN_LOSS, self.timeouts.token_loss)
        self.observer = observer
        self.clock = clock

        #: Changed only by ``_enter``, together with ``_rows`` (the
        #: current state's column of the table).
        self.state = MemberState.GATHER
        self._rows = _ROWS_OF[MemberState.GATHER]
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
        #: Straggler-help damping (see _help_straggler): when the current
        #: ring was installed, and when each peer was last sent a help reply.
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

    @property
    def token_has_priority(self) -> bool:
        return self.ordering.token_has_priority if self.ordering else True

    def start(self) -> List[Effect]:
        """Begin membership: gather a first ring."""
        effects: List[Effect] = []
        self._gather(effects)
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
        """Handle one received message (any protocol or control type)."""
        try:
            handler = self._rows[message.__class__]
        except KeyError:
            raise TypeError(f"unknown message type {type(message).__name__}") from None
        effects: List[Effect] = []
        if handler is not None:
            handler(self, message, effects)
        return effects

    def on_data_batch(self, messages: Sequence[DataMessage]) -> List[Effect]:
        """Handle one coalesced datagram's worth of data messages."""
        effects: List[Effect] = []
        self._rows[DATA_BATCH](self, messages, effects)
        return effects

    def on_timer(self, name: str) -> List[Effect]:
        """Handle a timer the controller previously armed via SetTimer."""
        try:
            handler = self._rows[name]
        except KeyError:
            raise ValueError(f"unknown timer {name!r}") from None
        effects: List[Effect] = []
        if handler is not None:
            handler(self, name, effects)
        return effects

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def _enter(
        self, state: MemberState, effects: List[Effect], survivors: Tuple[str, ...] = ()
    ) -> None:
        """The only way to change state: assert the edge, cancel what it
        cancels (``survivors`` excepted), reset the fields that do not
        outlive it, notify the observer — of same-state transitions (a
        gather restart, a commit token's second pass) too: they mark
        real protocol events, not bookkeeping noise."""
        old = self.state
        cancelled = TRANSITIONS.get((old, state))
        assert cancelled is not None, f"illegal transition {old.value} -> {state.value}"
        for name in cancelled:
            if name not in survivors:
                effects.append(CancelTimer(name))
        # Whichever edge this is, the recovery ``_rec`` described is over
        # (or, entering Recover, about to be set) — its stash is not: QUIRK_STASH.
        self._rec = None
        if state is MemberState.GATHER:
            # A clean slate: fail verdicts are re-derived from scratch.
            self._expected_members = None
            self._proc_set = {self.pid, *self.members}
            self._joins = {}
            self._settle_armed = False
            self._consensus_strikes = 0
        self.state = state
        self._rows = _ROWS_OF[state]
        self._notify("state_change", **{"from": old.value, "to": state.value})

    def _notify(self, event: str, **detail: object) -> None:
        if self.observer is not None:
            self.observer.on_membership_event(self.pid, event, detail=detail, now=self._now())

    def _jittered(self, delay: float) -> float:
        """Gather-phase timers get +/-25% deterministic jitter (see __init__)."""
        return delay * self._rng.uniform(0.75, 1.25)

    def _now(self) -> Optional[float]:
        return self.clock() if self.clock is not None else None

    # ------------------------------------------------------------------
    # Ring-scoped traffic: tokens and data
    # ------------------------------------------------------------------

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

    def _withhold_deliveries(self, core_effects: Sequence[Effect], effects: List[Effect]) -> None:
        """While not Operational, recovery owns delivery attribution:
        forward only the engine's wire effects, and undo the delivery
        frontier advance.  The engine has no un-deliver operation, so
        its frontier is rolled back instead."""
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

    def _route_by_ring(self, item: object, effects: List[Effect]) -> bool:
        """Ring-scoped routing of a token or a data message, decided
        here and nowhere else.  True: ``item`` is stamped with the
        current ring and the caller feeds it to the engine.  Otherwise
        it is disposed of: stashed for the ring under recovery, dropped
        as stale traffic of a ring we have left, or — a foreign ring,
        evidence of a partition healing — answered by re-gathering if
        Operational."""
        ordering = self.ordering
        ring_id = item.ring_id
        if ordering is not None and ring_id == ordering.ring_id:
            return True
        rec = self._rec
        if rec is not None and ring_id == rec.new_ring_id:
            self._stash.append(item)
        elif ring_id not in self._past_rings and self.state is MemberState.OPERATIONAL:
            self._gather(effects)
        return False

    def _token(self, token: RegularToken, effects: List[Effect]) -> None:
        if self._route_by_ring(token, effects):
            self._translate(self.ordering.on_token(token), effects)
            # Re-arms the live timer: SetTimer replaces a name's deadline.
            effects.append(self._token_loss_timer)

    def _data(self, message: DataMessage, effects: List[Effect]) -> None:
        if self._route_by_ring(message, effects):
            self._translate(self.ordering.on_data(message), effects)

    def _data_withheld(self, message: DataMessage, effects: List[Effect]) -> None:
        # Data for the current ring is accepted in every state: during
        # Gather/Commit it still fills recovery holes.
        if self._route_by_ring(message, effects):
            self._withhold_deliveries(self.ordering.on_data(message), effects)

    def _engine_batch(
        self, messages: Sequence[DataMessage], effects: List[Effect]
    ) -> Sequence[Effect]:
        """The engine's effects for a batch wholly of the current ring
        (the only batch a peer on the same ring ever emits), through its
        batch entry point so delivery runs stay batched end to end.  A
        mixed or foreign batch (e.g. one straggling across a
        configuration change) goes through the table message by message
        instead — the state may change under it."""
        ordering = self.ordering
        if ordering is not None:
            ring_id = ordering.ring_id
            for message in messages:
                if message.ring_id != ring_id:
                    break
            else:
                return ordering.on_data_batch(messages)
        for message in messages:
            self._rows[DataMessage](self, message, effects)
        return ()

    def _batch(self, messages: Sequence[DataMessage], effects: List[Effect]) -> None:
        self._translate(self._engine_batch(messages, effects), effects)

    def _batch_withheld(self, messages: Sequence[DataMessage], effects: List[Effect]) -> None:
        self._withhold_deliveries(self._engine_batch(messages, effects), effects)

    def _token_lost(self, _name: str, effects: List[Effect]) -> None:
        self.token_losses += 1
        self._notify("token_loss", ring_id=self.ring_id)
        self._gather(effects)

    def _beacon_due(self, _name: str, effects: List[Effect]) -> None:
        effects.append(SendControl(BeaconMessage(sender=self.pid, ring_id=self.ring_id)))
        effects.append(SetTimer(TIMER_BEACON, self.timeouts.beacon_interval))

    def _adopt_epoch(self, beacon: BeaconMessage, effects: List[Effect]) -> None:
        # Beacons carry the sender's ring epoch; adopting it ensures our
        # next joins are not dismissed as stale by that ring's members.
        beacon_seq, _rep = decode_ring_id(beacon.ring_id)
        self.highest_ring_seq = max(self.highest_ring_seq, beacon_seq)

    def _beacon(self, beacon: BeaconMessage, effects: List[Effect]) -> None:
        self._adopt_epoch(beacon, effects)
        if beacon.ring_id != self.ring_id and beacon.ring_id not in self._past_rings:
            # A foreign operational ring exists: merge.
            self._gather(effects)

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------

    def _gather(self, effects: List[Effect], pre_failed: Iterable[int] = ()) -> None:
        """Enter Gather.  ``pre_failed`` seeds the fail set: peers an
        aborted recovery proved unresponsive start this gather already
        condemned, so consensus does not stall waiting for them again
        (graceful degradation — the candidate set shrinks instead of
        hanging)."""
        self._enter(MemberState.GATHER, effects)
        self._fail_set = set(pre_failed) - {self.pid}
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

    def _regather(self, _name: str, effects: List[Effect]) -> None:
        # A commit token that never came, or a gather that stalled (e.g.
        # contradictory fail verdicts from interleaved attempts).
        self._gather(effects)

    def _send_join(self, effects: List[Effect]) -> None:
        join = JoinMessage(
            sender=self.pid,
            proc_set=frozenset(self._proc_set),
            fail_set=frozenset(self._fail_set),
            ring_seq=self.highest_ring_seq,
        )
        self.joins_sent += 1
        effects.append(SendControl(join))

    def _join_due(self, _name: str, effects: List[Effect]) -> None:
        self._send_join(effects)
        effects.append(SetTimer(TIMER_JOIN, self._jittered(self.timeouts.join_interval)))

    def _join_operational(self, join: JoinMessage, effects: List[Effect]) -> None:
        if join.sender == self.pid:
            return
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
        self._gather(effects)
        self._join(join, effects)

    def _join_recovering(self, join: JoinMessage, effects: List[Effect]) -> None:
        # A join from a member of the ring under recovery, at or past
        # that ring's epoch, is explicit evidence the exchange is dead:
        # joins are only sent while gathering, so the sender abandoned
        # this recovery and can never answer its status exchange.
        # Abort now — cheaper and faster than burning the whole retry
        # budget on a peer that told us it left.  (Joins from before
        # the commit carry an older ring_seq and do not trigger this;
        # like any other join they are then left to the timeouts.)
        rec = self._rec
        new_seq, _rep = decode_ring_id(rec.new_ring_id)
        if join.sender != self.pid and join.sender in rec.members and join.ring_seq >= new_seq:
            self._abort_recovery(rec, effects, reason="peer_regathered")
            self._join(join, effects)

    def _join(self, join: JoinMessage, effects: List[Effect]) -> None:
        if join.sender == self.pid:
            return
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
            effects.append(SetTimer(TIMER_CONSENSUS, self._jittered(self.timeouts.consensus_timeout)))
            if self._settle_armed:
                # The one cancel outside _enter: the view changed under
                # a settle window, which no longer vouches for it.
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
        return all(self._joins.get(peer) == my_view for peer in candidates if peer != self.pid)

    def _check_consensus(self, effects: List[Effect]) -> None:
        """When everyone agrees, wait a short settle window before
        committing: during merges, joins from slightly-later arrivals
        would otherwise race a premature smaller ring into existence."""
        if not self._settle_armed and self._consensus_holds():
            self._settle_armed = True
            effects.append(SetTimer(TIMER_SETTLE, self._jittered(self.timeouts.consensus_settle)))

    def _settled(self, _name: str, effects: List[Effect]) -> None:
        self._settle_armed = False
        if self._consensus_holds():
            self._propose(sorted(self._candidates()), effects)

    def _settle_stray(self, _name: str, effects: List[Effect]) -> None:
        self._settle_armed = False

    def _consensus_timeout(self, _name: str, effects: List[Effect]) -> None:
        # Patience: declare a candidate failed only on the second
        # consecutive timeout without a join from it.  A live peer can be
        # legitimately silent for one window while it finishes committing
        # or recovering a competing proposal (joins are only sent while
        # gathering); condemning it on the first timeout seeds mutual
        # fail verdicts that take far longer to clear than the wait.
        self._consensus_strikes += 1
        if self._consensus_strikes >= 2:
            self._fail_set |= self._candidates() - set(self._joins) - {self.pid}
        self._send_join(effects)
        effects.append(SetTimer(TIMER_CONSENSUS, self._jittered(self.timeouts.consensus_timeout)))
        if self._candidates() == {self.pid}:
            # Alone after the wait: form a singleton ring.
            self._recover(self._new_commit_token([self.pid]), effects)
        else:
            self._check_consensus(effects)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _my_info(self) -> MemberInfo:
        if self.ordering is None:
            return MemberInfo(old_ring_id=encode_ring_id(0, self.pid), old_aru=0, high_seq=0)
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

    def _propose(self, members: List[int], effects: List[Effect]) -> None:
        """Enter Commit on our own consensus; the representative starts
        the commit token, everyone else waits for it."""
        self._enter(MemberState.COMMIT, effects)
        self._expected_members = tuple(members)
        effects.append(SetTimer(TIMER_COMMIT, self.timeouts.commit_timeout))
        if self.pid == members[0]:
            token = self._new_commit_token(members)
            effects.append(SendControl(token, destination=token.successor_of(self.pid)))

    def _new_commit_token(self, members: List[int]) -> CommitToken:
        """A commit token for the next ring this process represents,
        carrying its own old-ring state."""
        self.highest_ring_seq += 1
        ring_id = encode_ring_id(self.highest_ring_seq, self.pid)
        token = CommitToken(ring_id=ring_id, members=tuple(members))
        token.infos[self.pid] = self._my_info()
        return token

    def _commit_token_gathering(self, token: CommitToken, effects: List[Effect]) -> None:
        if set(token.members) == self._candidates():  # the membership we have agreed to
            self._forward_commit_token(token, effects, survivors=(TIMER_GATHER_RESTART,))

    def _commit_token_committing(self, token: CommitToken, effects: List[Effect]) -> None:
        if self._expected_members in (None, tuple(token.members)):  # not an earlier proposal's
            self._forward_commit_token(token, effects)

    def _forward_commit_token(
        self, token: CommitToken, effects: List[Effect], survivors: Tuple[str, ...] = ()
    ) -> None:
        if (
            self.pid not in token.members
            or token.ring_id == self.ring_id
            or token.ring_id in self._past_rings
            or token.ring_id in self._attempted_rings
        ):
            # Not ours, or an echo still circulating for a ring we already
            # installed, left, or abandoned mid-recovery.  Ring ids are
            # never reused, so that can only be dead history; accepting it
            # would re-run recovery (re-delivering its configurations) in
            # an endless install/teardown churn loop.
            return
        token = token.copy()
        seq, _rep = decode_ring_id(token.ring_id)
        self.highest_ring_seq = max(self.highest_ring_seq, seq)
        if self.pid not in token.infos:
            token.infos[self.pid] = self._my_info()
        self._enter(MemberState.COMMIT, effects, survivors)
        effects.append(SetTimer(TIMER_COMMIT, self.timeouts.commit_timeout))
        effects.append(SendControl(token.copy(), destination=token.successor_of(self.pid)))
        if token.complete:
            self._recover(token, effects)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover(self, token: CommitToken, effects: List[Effect]) -> None:
        """Enter Recover on a complete commit token."""
        self._enter(MemberState.RECOVER, effects)
        self._attempted_rings.add(token.ring_id)
        old_ring = token.infos[self.pid].old_ring_id
        old_members = tuple(m for m in token.members if token.infos[m].old_ring_id == old_ring)
        low = min(token.infos[m].old_aru for m in old_members)
        high = max(token.infos[m].high_seq for m in old_members)
        # The commit token is identical at every member, so every old-ring
        # survivor computes the same delivery split point — the basis of
        # their agreement on the closed ring's delivered set.
        deliver_high = max(token.infos[m].last_delivered for m in old_members)
        rec = _RecoveryState(
            new_ring_id=token.ring_id,
            members=token.members,
            my_old_ring=old_ring,
            old_members=old_members,
            low=low,
            high=high,
            buffer=self.ordering.buffer if self.ordering is not None else None,
            deliver_high=deliver_high,
        )
        if rec.buffer is not None:
            rec.my_have = {
                seq for seq in range(low + 1, high + 1) if rec.buffer.get(seq) is not None
            }
        rec.done = not rec.needed()
        self._rec = rec
        self._notify(
            "recovery_started",
            ring_id=rec.new_ring_id,
            old_ring_id=rec.my_old_ring,
            old_members=sorted(rec.old_members),
            window=[rec.low, rec.high],
            deliver_high=rec.deliver_high,
        )
        self._flood(rec, rec.my_have, effects)
        self._send_status(rec, effects)
        effects.append(SetTimer(TIMER_RECOVERY_STATUS, self.timeouts.recovery_status_interval))
        effects.append(SetTimer(TIMER_RECOVERY, self.timeouts.recovery_timeout))
        self._maybe_finalize(effects)

    def _flood(
        self, rec: _RecoveryState, seqs: Set[int], effects: List[Effect], to: Optional[int] = None
    ) -> None:
        # ``seqs`` is empty when there was no old ring, hence no buffer.
        for seq in sorted(seqs):
            message = rec.buffer.get(seq)
            if message is not None:
                effects.append(SendControl(RecoveredMessage(rec.my_old_ring, message), to))

    def _send_status(
        self, rec: _RecoveryState, effects: List[Effect], to: Optional[int] = None
    ) -> None:
        status = RecoveryStatus(
            sender=self.pid,
            new_ring_id=rec.new_ring_id,
            old_ring_id=rec.my_old_ring,
            have=tuple(sorted(rec.my_have)),
            complete=rec.done,
        )
        effects.append(SendControl(status, to))

    def _recovered(self, message: RecoveredMessage, effects: List[Effect]) -> None:
        rec = self._rec
        if message.old_ring_id != rec.my_old_ring or rec.buffer is None:
            return
        if not (rec.low < message.message.seq <= rec.high):
            return
        if rec.buffer.insert(message.message):
            rec.my_have.add(message.message.seq)
            self._progress(rec, effects)

    def _status(self, status: RecoveryStatus, effects: List[Effect]) -> None:
        rec = self._rec
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
        self._progress(rec, effects)

    def _progress(self, rec: _RecoveryState, effects: List[Effect]) -> None:
        if not rec.done and not rec.needed():
            rec.done = True
            self._send_status(rec, effects)
        self._maybe_finalize(effects)

    def _help_straggler(self, status: RecoveryStatus, effects: List[Effect]) -> None:
        """After we have installed the new ring, a member still
        gossiping recovery status for it missed our final status (e.g.
        it was still in Commit when we sent it) — re-send it, and
        re-flood anything it lacks."""
        final = self._final_recovery
        if (
            status.new_ring_id != self.ring_id
            or status.sender == self.pid
            or status.old_ring_id != final.my_old_ring
        ):
            return
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
            if now - self._installed_at > self.timeouts.recovery_timeout:
                return
            last = self._help_sent.get(status.sender)
            if last is not None and now - last < self.timeouts.recovery_status_interval:
                return
            self._help_sent[status.sender] = now
        self._flood(final, final.my_have - set(status.have), effects, status.sender)
        self._send_status(final, effects, status.sender)

    def _recovery_gossip(self, effects: List[Effect]) -> None:
        rec = self._rec
        self._send_status(rec, effects)
        # Re-flood what known peers are missing (unknown peers will ask by
        # sending their first status).
        missing_somewhere: Set[int] = set()
        for peer in rec.old_members:
            if peer != self.pid and peer in rec.peer_have:
                missing_somewhere |= rec.my_have - rec.peer_have[peer]
        self._flood(rec, missing_somewhere, effects)

    def _gossip_due(self, _name: str, effects: List[Effect]) -> None:
        self._recovery_gossip(effects)
        effects.append(SetTimer(TIMER_RECOVERY_STATUS, self.timeouts.recovery_status_interval))

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

    def _recovery_timeout(self, _name: str, effects: List[Effect]) -> None:
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
        rec.attempt += 1
        rec.suspects = self._recovery_suspects(rec)
        if rec.attempt > self.timeouts.recovery_retries:
            self._abort_recovery(rec, effects)
            return
        self.recovery_retries += 1
        delay = self._recovery_backoff_delay(rec.attempt)
        self._notify(
            "recovery_retry",
            ring_id=rec.new_ring_id,
            attempt=rec.attempt,
            retries_left=self.timeouts.recovery_retries - rec.attempt,
            next_delay=delay,
            missing=len(rec.needed()),
            suspects=sorted(rec.suspects),
        )
        # Unanswered flood/status round: say it all again, louder.  The
        # status re-announces our holdings (prompting peers to flood what
        # we lack); the flood re-sends everything known peers lack.
        self._recovery_gossip(effects)
        effects.append(SetTimer(TIMER_RECOVERY, delay))

    def _abort_recovery(
        self, rec: _RecoveryState, effects: List[Effect], reason: str = "retry_budget"
    ) -> None:
        """Give up on this exchange and regather — because the retry
        budget ran out, or because a recovery peer demonstrably abandoned
        the exchange (``reason="peer_regathered"``).

        Never finalizes a torn state — no configuration or message is
        delivered here.  Suspected-dead peers seed the new gather's fail
        set, shrinking the candidate set (graceful degradation)."""
        self.recovery_aborts += 1
        self._notify(
            "recovery_aborted",
            ring_id=rec.new_ring_id,
            attempts=rec.attempt,
            missing=len(rec.needed()),
            suspects=sorted(rec.suspects),
            reason=reason,
        )
        self._gather(effects, pre_failed=rec.suspects)

    def _maybe_finalize(self, effects: List[Effect]) -> None:
        rec = self._rec
        if rec.done and rec.complete_peers | {self.pid} >= set(rec.old_members):
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
            transitional = Configuration.transitional_of(
                encode_transitional_id(rec.my_old_ring, rec.new_ring_id),
                rec.old_members,
                closes=rec.my_old_ring,
            )
            effects.append(DeliverConfiguration(transitional))
            # Phase 2: everything else recovered, gaps skipped (EVS allows
            # delivery past holes only in the transitional configuration).
            while seq <= rec.high:
                message = ordering.buffer.get(seq)
                if message is not None:
                    self._deliver_recovered(message, rec, effects)
                seq += 1
            self._past_rings.add(ordering.ring_id)

        # Install the new ring.
        members = sorted(rec.members)
        new_config = Configuration.regular(rec.new_ring_id, members)
        effects.append(DeliverConfiguration(new_config))
        engine = AcceleratedRingParticipant if self.accelerated else OriginalRingParticipant
        participant = engine(
            pid=self.pid,
            ring=members,
            config=self.protocol_config,
            ring_id=rec.new_ring_id,
            observer=self.observer,
            clock=self.clock,
        )
        if self.ordering is not None:
            participant.pending = self.ordering.pending
        while self._pre_ring_pending:
            payload, service, timestamp, size = self._pre_ring_pending.popleft()
            participant.submit(payload, service, timestamp, size)
        self.ordering = participant
        self.ring_config = new_config
        self._enter(MemberState.OPERATIONAL, effects)
        self.view_changes += 1
        self.recoveries_completed += 1
        ring_id = rec.new_ring_id
        self._notify("recovery_completed", ring_id=ring_id, attempts=rec.attempt, members=members)
        self._notify("ring_installed", ring_id=ring_id, members=list(members))
        self._notify("view_change", ring_id=ring_id)
        self._final_recovery = rec
        self._installed_at = self._now()
        self._help_sent = {}
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


# ----------------------------------------------------------------------
# The transition table
# ----------------------------------------------------------------------


class Row(NamedTuple):
    """What one (state, event) pair does."""

    #: ``handler(controller, message | messages | timer name, effects)``.
    handler: Callable[[MembershipController, object, List[Effect]], object]
    #: The states the call may enter, any number of them in a chain.
    enters: Tuple[MemberState, ...] = ()
    #: The named quirk this row exists for, or takes part in.
    quirk: Optional[str] = None


_M = MembershipController
#: What installing a ring may enter: Operational, and Gather again when
#: the replayed stash holds a foreign ring's traffic.
_INSTALLS = (_O, _G)

TABLE: Dict[Tuple[MemberState, object], Row] = {
    (_O, RegularToken): Row(_M._token, (_G,)),
    (_R, RegularToken): Row(_M._route_by_ring),  # stashed if stamped with the new ring
    (_O, DataMessage): Row(_M._data, (_G,)),
    (_G, DataMessage): Row(_M._data_withheld),
    (_C, DataMessage): Row(_M._data_withheld),
    (_R, DataMessage): Row(_M._data_withheld),
    (_O, DATA_BATCH): Row(_M._batch, (_G,)),
    (_G, DATA_BATCH): Row(_M._batch_withheld),
    (_C, DATA_BATCH): Row(_M._batch_withheld),
    (_R, DATA_BATCH): Row(_M._batch_withheld),
    (_O, JoinMessage): Row(_M._join_operational, (_G,)),
    (_G, JoinMessage): Row(_M._join),
    (_R, JoinMessage): Row(_M._join_recovering, (_G,), QUIRK_STASH),
    (_G, CommitToken): Row(_M._commit_token_gathering, (_C, _R) + _INSTALLS, QUIRK_GATHER_RESTART),
    (_C, CommitToken): Row(_M._commit_token_committing, (_C, _R) + _INSTALLS),
    (_R, RecoveredMessage): Row(_M._recovered, _INSTALLS),
    (_R, RecoveryStatus): Row(_M._status, _INSTALLS),
    (_O, RecoveryStatus): Row(_M._help_straggler),
    (_O, BeaconMessage): Row(_M._beacon, (_G,)),
    (_G, BeaconMessage): Row(_M._adopt_epoch),
    (_C, BeaconMessage): Row(_M._adopt_epoch),
    (_R, BeaconMessage): Row(_M._adopt_epoch),
    # Timers, each in the state that owns it...
    (_O, TIMER_TOKEN_LOSS): Row(_M._token_lost, (_G,)),
    (_O, TIMER_BEACON): Row(_M._beacon_due),
    (_G, TIMER_JOIN): Row(_M._join_due),
    (_G, TIMER_CONSENSUS): Row(_M._consensus_timeout, (_R,) + _INSTALLS),
    (_G, TIMER_SETTLE): Row(_M._settled, (_C,)),
    (_G, TIMER_GATHER_RESTART): Row(_M._regather, (_G,)),
    (_C, TIMER_COMMIT): Row(_M._regather, (_G,)),
    (_R, TIMER_RECOVERY_STATUS): Row(_M._gossip_due),
    (_R, TIMER_RECOVERY): Row(_M._recovery_timeout, (_G,), QUIRK_STASH),
    # ...and the one that outlives its state.
    **{(state, TIMER_SETTLE): Row(_M._settle_stray, quirk=QUIRK_SETTLE) for state in (_C, _R, _O)},
}

#: Dropped by rule: the call returns ``[]`` and changes nothing.
DROPPED: FrozenSet[Tuple[MemberState, object]] = frozenset(
    (state, event)
    for event, states in {
        # Only Recover has a ring to stash a token for, only Operational
        # answers a foreign one, and only Operational runs the engine.
        RegularToken: (_G, _C),
        JoinMessage: (_C,),  # committing: let the timeouts sort out failures
        CommitToken: (_R, _O),  # e.g. the second-pass echo while already recovering
        RecoveredMessage: (_O, _G, _C),
        RecoveryStatus: (_G, _C),
        # A timer outside the state that owns it: a stray or deferred
        # firing (a stalled process runs its timers late) is a no-op.
        TIMER_TOKEN_LOSS: (_G, _C, _R),
        TIMER_BEACON: (_G, _C, _R),
        TIMER_JOIN: (_O, _C, _R),
        TIMER_CONSENSUS: (_O, _C, _R),
        TIMER_GATHER_RESTART: (_O, _C, _R),  # in Commit it may really be armed (QUIRK_GATHER_RESTART)
        TIMER_COMMIT: (_O, _G, _R),
        TIMER_RECOVERY_STATUS: (_O, _G, _C),
        TIMER_RECOVERY: (_O, _G, _C),
    }.items()
    for state in states
)

#: state → event → handler (``None``: dropped): the column of the table
#: that ``on_message`` / ``on_data_batch`` / ``on_timer`` look an event up in.
_ROWS_OF: Dict[MemberState, Dict[object, Optional[Callable[..., object]]]] = {
    state: {
        **{event: None for at, event in DROPPED if at is state},
        **{event: row.handler for (at, event), row in TABLE.items() if at is state},
    }
    for state in MemberState
}

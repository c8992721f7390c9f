"""The ``ProtocolObserver`` hook interface and standard implementations.

Observers are the redesigned way to watch a running protocol stack:
instead of scraping engine internals after a run, callers pass an
observer when building (``ClusterBuilder().observe(observer)``,
``RingNode(..., observer=...)``, ``AcceleratedRingParticipant(...,
observer=...)``) and receive a callback at every protocol event.

Hook timing:

* ``on_token_received`` / ``on_token_sent`` / ``on_multicast`` /
  ``on_retransmit_requested`` / ``on_flow_control`` fire inside the
  sans-io ordering engines at protocol-event time.  Answering a
  retransmission request is ``on_multicast(..., retransmission=True)``.
* ``on_deliver_batch`` fires in the layer that owns application delivery
  (the sim driver or the membership controller), once per delivered run,
  so its message count is exactly the application-visible delivery
  count — the same events the EVS checker records.
* ``on_membership_event`` fires in the membership controller on state
  transitions, ring installs, token losses and recovery phases.
* ``on_fault`` fires in :mod:`repro.faults` when a fault is injected.

There is one hook per protocol event: eight in all.

``now`` is whatever clock the hosting layer runs on — simulated seconds
in :mod:`repro.sim`, the event-loop clock in :mod:`repro.runtime` — or
``None`` for bare engines with no clock attached.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.messages import DataMessage
from repro.core.token import RegularToken
from repro.obs.metrics import (
    COUNT_BOUNDS,
    LATENCY_BOUNDS,
    MetricsRegistry,
)


class ProtocolObserver:
    """Base class: every hook is a no-op.  Subclass and override."""

    def on_token_received(
        self, pid: int, token: RegularToken, now: Optional[float] = None
    ) -> None:
        """A regular token was accepted for processing (round start)."""

    def on_token_sent(
        self, pid: int, token: RegularToken, now: Optional[float] = None
    ) -> None:
        """The updated token was released to the successor."""

    def on_multicast(
        self,
        pid: int,
        message: DataMessage,
        retransmission: bool = False,
        now: Optional[float] = None,
    ) -> None:
        """A data message was multicast: a new one, or with
        ``retransmission=True`` this participant's answer to a token
        retransmission request for ``message.seq``."""

    def on_deliver_batch(
        self,
        pid: int,
        messages: Sequence[DataMessage],
        now: Optional[float] = None,
    ) -> None:
        """An in-order run of messages was delivered to the local
        application: the one delivery hook, fired once per run (a run of
        one is a 1-tuple)."""

    def on_retransmit_requested(
        self, pid: int, seq: int, now: Optional[float] = None
    ) -> None:
        """This participant added ``seq`` to the token's request list."""

    def on_flow_control(
        self,
        pid: int,
        decision: object,
        token_fcc: int,
        now: Optional[float] = None,
    ) -> None:
        """The per-round sending plan (a ``FlowControlDecision``) was made."""

    def on_membership_event(
        self,
        pid: int,
        event: str,
        detail: Optional[Dict[str, object]] = None,
        now: Optional[float] = None,
    ) -> None:
        """A membership-layer event.  ``event`` is one of:

        * ``state_change`` — ``detail`` carries ``from`` and ``to``;
        * ``ring_installed`` — ``ring_id`` and the installed ``members``;
        * ``view_change`` — ``ring_id``;
        * ``token_loss`` — ``ring_id``;
        * ``recovery_started`` — a recovery exchange began: ``ring_id``,
          ``old_ring_id``, ``old_members``, the exchange ``window`` and
          the agreed ``deliver_high`` split point;
        * ``recovery_retry`` — a recovery round expired and the flood /
          status exchange is retried: ``ring_id``, ``attempt``,
          ``retries_left``, the backed-off ``next_delay``, the
          ``missing`` message count and the current ``suspects``;
        * ``recovery_aborted`` — the recovery fell back to Gather:
          ``ring_id``, ``attempts``, ``missing``, the ``suspects`` that
          seed the regather's fail set, and the ``reason``;
        * ``recovery_completed`` — the recovery installed its ring:
          ``ring_id``, ``attempts`` (retry rounds used) and ``members``.
        """

    def on_fault(
        self,
        kind: str,
        detail: Optional[Dict[str, object]] = None,
        now: Optional[float] = None,
    ) -> None:
        """A fault was injected by :mod:`repro.faults`: ``crash``,
        ``recover``, ``partition``, ``heal``, ``token_drop``,
        ``loss_burst`` / ``loss_burst_end``, ``pause``, ``resume``.

        ``detail`` carries the event's parameters (pid, groups, rate, …).
        Faults are cluster-scoped, so unlike the protocol hooks there is
        no ``pid`` first argument; per-process faults name their target in
        ``detail["pid"]``."""


class NullObserver(ProtocolObserver):
    """Explicit no-op observer (the hooks are already no-ops)."""


def effective_observer(
    observer: Optional[ProtocolObserver],
) -> Optional[ProtocolObserver]:
    """Normalize an observer for hot-path dispatch.

    A bare :class:`NullObserver` (not a subclass) collapses to ``None`` so
    engines and drivers can guard hook calls with a plain ``is not None``
    test instead of paying a no-op method call per protocol event.
    Subclasses pass through untouched: overriding any hook makes the
    observer meaningful again.
    """
    if observer is None or type(observer) is NullObserver:
        return None
    return observer


#: ``on_membership_event`` event → the counter :class:`MetricsObserver`
#: bumps for it.
_MEMBERSHIP_COUNTERS = {
    "state_change": "membership.state_changes",
    "ring_installed": "membership.ring_installs",
    "token_loss": "membership.token_losses",
    "view_change": "membership.view_changes",
    "recovery_started": "recovery.started",
    "recovery_retry": "recovery.retries",
    "recovery_aborted": "recovery.aborted",
    "recovery_completed": "recovery.completed",
}


class MetricsObserver(ProtocolObserver):
    """Turns protocol events into metrics in a :class:`MetricsRegistry`.

    Metric names (the stable, documented surface):

    ==============================  ==========================================
    ``token.received``            tokens accepted (counter)
    ``token.sent``                tokens released (counter)
    ``token.rotation_time``       per-participant token inter-arrival (histogram, s)
    ``multicast.sent``            new data messages multicast (counter)
    ``multicast.pre_token``       of which before the token release (counter)
    ``multicast.post_token``      of which after the token release (counter)
    ``retransmit.sent``           retransmission requests answered (counter)
    ``retransmit.requested``      sequence numbers requested (counter)
    ``deliver.messages``          application deliveries (counter)
    ``deliver.latency``           submit-to-deliver latency (histogram, s)
    ``round.sent_messages``       new messages per token visit (histogram)
    ``flow.fcc``                  last seen global-window usage (gauge)
    ``flow.headroom``             last seen global-window headroom (gauge)
    ``membership.state_changes``  controller state transitions (counter)
    ``membership.ring_installs``  regular configurations installed (counter)
    ``membership.token_losses``   token-loss timeouts fired (counter)
    ``membership.view_changes``   views installed by a recovery (counter)
    ``recovery.started``          recovery exchanges entered (counter)
    ``recovery.retries``          recovery retry rounds fired (counter)
    ``recovery.aborted``          recoveries aborted to Gather (counter)
    ``recovery.completed``        recoveries finalized into a ring (counter)
    ``recovery.attempts``         retry rounds used per completed recovery (histogram)
    ``fault.crashes``             crashes injected (counter)
    ``fault.recoveries``          recoveries injected (counter)
    ``fault.partitions``          partitions injected (counter)
    ``fault.heals``               heals injected (counter)
    ``fault.partitions_active``   partitions currently in force (gauge)
    ``fault.token_drops``         token frames deliberately dropped (counter)
    ``fault.loss_bursts``         loss bursts injected (counter)
    ``fault.rack_power_losses``   correlated rack failures injected (counter);
                                  the rack's member crashes also count in
                                  ``fault.crashes``
    ``fault.pauses``              GC-stall pauses injected (counter)
    ``fault.resumes``             pause resumes injected (counter)
    ==============================  ==========================================

    Each metric comes from one hook: ``retransmit.sent`` from
    ``on_multicast(..., retransmission=True)``, and the ``membership.*``
    and ``recovery.*`` metrics from ``on_membership_event``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._last_token_at: Dict[int, float] = {}

    # -- token ---------------------------------------------------------

    def on_token_received(self, pid, token, now=None):
        self.registry.counter("token.received").inc()
        if now is not None:
            previous = self._last_token_at.get(pid)
            if previous is not None and now >= previous:
                self.registry.histogram(
                    "token.rotation_time", LATENCY_BOUNDS
                ).record(now - previous)
            self._last_token_at[pid] = now

    def on_token_sent(self, pid, token, now=None):
        self.registry.counter("token.sent").inc()

    # -- data ----------------------------------------------------------

    def on_multicast(self, pid, message, retransmission=False, now=None):
        if retransmission:
            self.registry.counter("retransmit.sent").inc()
            return
        self.registry.counter("multicast.sent").inc()
        if message.post_token:
            self.registry.counter("multicast.post_token").inc()
        else:
            self.registry.counter("multicast.pre_token").inc()

    def on_deliver_batch(self, pid, messages, now=None):
        # One counter bump for the whole run; the latency histogram
        # still records per message (each message has its own timestamp).
        self.registry.counter("deliver.messages").inc(len(messages))
        if now is None:
            return
        record = self.registry.histogram("deliver.latency", LATENCY_BOUNDS).record
        for message in messages:
            if message.timestamp is not None:
                latency = now - message.timestamp
                if latency >= 0:
                    record(latency)

    # -- retransmission ------------------------------------------------

    def on_retransmit_requested(self, pid, seq, now=None):
        self.registry.counter("retransmit.requested").inc()

    # -- flow control --------------------------------------------------

    def on_flow_control(self, pid, decision, token_fcc, now=None):
        self.registry.gauge("flow.fcc").set(token_fcc)
        headroom = getattr(decision, "global_headroom", None)
        if headroom is not None:
            self.registry.gauge("flow.headroom").set(headroom)
        num_to_send = getattr(decision, "num_to_send", 0)
        if num_to_send:
            self.registry.histogram(
                "round.sent_messages", COUNT_BOUNDS
            ).record(num_to_send)

    # -- membership ----------------------------------------------------

    def on_membership_event(self, pid, event, detail=None, now=None):
        name = _MEMBERSHIP_COUNTERS.get(event)
        if name is not None:
            self.registry.counter(name).inc()
        if event == "recovery_completed":
            attempts = (detail or {}).get("attempts")
            if attempts is not None:
                self.registry.histogram("recovery.attempts", COUNT_BOUNDS).record(
                    int(attempts)
                )

    # -- injected faults -----------------------------------------------

    def on_fault(self, kind, detail=None, now=None):
        detail = detail or {}
        if kind == "crash":
            self.registry.counter("fault.crashes").inc()
        elif kind == "recover":
            self.registry.counter("fault.recoveries").inc()
        elif kind == "partition":
            self.registry.counter("fault.partitions").inc()
            self.registry.gauge("fault.partitions_active").set(
                int(detail.get("active", 1))
            )
        elif kind == "heal":
            self.registry.counter("fault.heals").inc()
            self.registry.gauge("fault.partitions_active").set(
                int(detail.get("active", 0))
            )
        elif kind == "token_drop":
            self.registry.counter("fault.token_drops").inc(int(detail.get("count", 1)))
        elif kind == "loss_burst":
            self.registry.counter("fault.loss_bursts").inc()
        elif kind == "rack_power_loss":
            self.registry.counter("fault.rack_power_losses").inc()
            self.registry.counter("fault.crashes").inc(
                len(detail.get("pids") or ())
            )
        elif kind == "pause":
            self.registry.counter("fault.pauses").inc()
        elif kind == "resume":
            self.registry.counter("fault.resumes").inc()

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return self.registry.snapshot()

"""Protocol-state coverage built on the observer hooks.

A conformance run that never retransmits or never hits the flow-control
cap proves very little; this module makes that visible.  A
:class:`CoverageObserver` attaches to a cluster like any other
:class:`~repro.obs.observer.ProtocolObserver` and counts *branches*:
token states, retransmission paths, flow-control outcomes, membership
state transitions, recovery phases, injected faults.  The counters live
in an ordinary :class:`~repro.obs.metrics.MetricsRegistry` (so they
merge and snapshot like every other metric, and render through
:mod:`repro.obs.export`), and :class:`CoverageReport` summarizes which
of the core branches were exercised and which were not.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.observer import ProtocolObserver

#: The branch counters every exploration report accounts for.  The list
#: is the *expected* surface: ``CoverageReport.unhit`` names the ones a
#: run never reached, so "exploration exercised the retransmission path"
#: is an assertable fact rather than a hope.
CORE_BRANCHES: Tuple[str, ...] = (
    "coverage.token.received",
    "coverage.token.sent",
    "coverage.token.with_rtr",
    "coverage.token.aru_lowered",
    "coverage.data.multicast",
    "coverage.data.retransmission",
    "coverage.retransmit.requested",
    "coverage.retransmit.answered",
    "coverage.flow.rounds",
    "coverage.flow.blocked",
    "coverage.flow.saturated",
    "coverage.flow.post_token",
    "coverage.deliver.messages",
    "coverage.membership.ring_installed",
    "coverage.membership.token_loss",
    "coverage.recovery.started",
    "coverage.recovery.completed",
)


#: ``on_membership_event`` event → its branch (each state change also
#: counts its ``membership.transition.<from>-><to>`` edge).
_MEMBERSHIP_BRANCHES = {
    "state_change": "membership.state_changes",
    "ring_installed": "membership.ring_installed",
    "token_loss": "membership.token_loss",
    "view_change": "membership.view_change",
    "recovery_started": "recovery.started",
    "recovery_retry": "recovery.retry",
    "recovery_aborted": "recovery.aborted",
    "recovery_completed": "recovery.completed",
}


class CoverageObserver(ProtocolObserver):
    """Counts protocol branches as ``coverage.*`` counters.

    Unlike :class:`~repro.obs.observer.MetricsObserver` (which measures
    *how much* — rates, latencies, distributions), this observer records
    *whether* each protocol branch ran at all, including conditional
    paths a plain event count cannot distinguish: a token carrying a
    non-empty retransmission-request list, a flow-control round that had
    to hold queued messages back, a saturated global window.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: branch name → its registry counter, so a hit is one dict read.
        self._counters: Dict[str, Counter] = {}

    def _hit(self, name: str, amount: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.registry.counter("coverage." + name)
        counter.value += amount

    # -- token ---------------------------------------------------------

    def on_token_received(self, pid, token, now=None):
        self._hit("token.received")
        if token.rtr:
            self._hit("token.with_rtr")
        if token.aru_lowered_by is not None:
            self._hit("token.aru_lowered")

    def on_token_sent(self, pid, token, now=None):
        self._hit("token.sent")

    # -- data ----------------------------------------------------------

    def on_multicast(self, pid, message, retransmission=False, now=None):
        if retransmission:
            self._hit("retransmit.answered")
            self._hit("data.retransmission")
        else:
            self._hit("data.multicast")

    def on_deliver_batch(self, pid, messages, now=None):
        self._hit("deliver.messages", len(messages))

    def on_retransmit_requested(self, pid, seq, now=None):
        self._hit("retransmit.requested")

    # -- flow control --------------------------------------------------

    def on_flow_control(self, pid, decision, token_fcc, now=None):
        self._hit("flow.rounds")
        queued = decision.queued
        if queued > decision.num_to_send:
            # The sender wanted to send more than the windows allowed.
            self._hit("flow.blocked")
        if queued > 0 and decision.global_headroom == 0:
            self._hit("flow.saturated")
        if decision.post_token > 0:
            self._hit("flow.post_token")

    # -- membership / recovery -----------------------------------------

    def on_membership_event(self, pid, event, detail=None, now=None):
        branch = _MEMBERSHIP_BRANCHES.get(event)
        if branch is not None:
            self._hit(branch)
        if event == "state_change":
            detail = detail or {}
            origin = detail.get("from")
            target = detail.get("to")
            if origin is not None and target is not None:
                self._hit(f"membership.transition.{origin}->{target}")

    # -- injected faults -----------------------------------------------

    def on_fault(self, kind, detail=None, now=None):
        self._hit(f"fault.{kind}")

    # ------------------------------------------------------------------

    def report(self) -> "CoverageReport":
        return CoverageReport.from_registry(self.registry)


class CoverageReport:
    """An immutable summary of coverage counters.

    ``hits`` maps counter name to count; :attr:`unhit` lists the
    :data:`CORE_BRANCHES` a run (or a merged set of runs) never reached.
    """

    def __init__(self, hits: Dict[str, int]) -> None:
        self.hits: Dict[str, int] = {
            name: int(count) for name, count in sorted(hits.items())
        }

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "CoverageReport":
        counters = registry.snapshot()["counters"]
        return cls(
            {
                name: count
                for name, count in counters.items()
                if name.startswith("coverage.")
            }
        )

    def hit(self, name: str) -> int:
        return self.hits.get(name, 0)

    @property
    def unhit(self) -> List[str]:
        return [name for name in CORE_BRANCHES if self.hits.get(name, 0) == 0]

    def merge(self, other: "CoverageReport") -> "CoverageReport":
        merged = dict(self.hits)
        for name, count in other.hits.items():
            merged[name] = merged.get(name, 0) + count
        return CoverageReport(merged)

    def to_dict(self) -> Dict[str, Any]:
        return {"hits": self.hits, "unhit": self.unhit}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CoverageReport":
        return cls(dict(payload.get("hits", {})))

    def format(self) -> str:
        lines = ["protocol-branch coverage:"]
        width = max((len(name) for name in self.hits), default=20)
        for name, count in self.hits.items():
            lines.append(f"  {name:<{width}}  {count}")
        if self.unhit:
            lines.append("not exercised:")
            for name in self.unhit:
                lines.append(f"  {name}")
        return "\n".join(lines)

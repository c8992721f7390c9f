"""Trace checker for Extended Virtual Synchrony properties.

Feed it the full delivery trace of every participant (message deliveries
and configuration changes) and it verifies the guarantees of paper §II:

* **Agreed delivery** — all members of a configuration deliver messages in
  the same total order, each message at most once.
* **Safe delivery** — if any member delivers a Safe message in a
  configuration, every other member of that configuration delivers it too,
  unless it crashes.
* **Configuration agreement** — participants installing the same
  configuration id agree on its membership.
* **Virtual synchrony** — two participants transitioning together through
  the same transitional configuration deliver the same set of messages
  before installing the next regular configuration.
* **Self delivery** — a participant delivers its own messages (given the
  submission record), unless it crashes.

The checker is deliberately independent of the protocol implementation:
it sees only traces, so protocol bugs cannot hide inside it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.evs.events import ConfigDelivery, DeliveryEvent, MessageDelivery
from repro.util.errors import ReproError


class EvsViolation(ReproError, AssertionError):
    """An EVS guarantee was violated by the recorded traces."""


MessageKey = Tuple[int, int]  # (origin ring/config of ordering, seq)


class EvsChecker:
    """Collects per-participant delivery traces and validates them."""

    def __init__(self) -> None:
        self.traces: Dict[int, List[DeliveryEvent]] = defaultdict(list)
        #: Optional: pid -> number of messages it submitted (for self-delivery).
        #: Cumulative across incarnations — reports and goldens read this.
        self.submissions: Dict[int, int] = {}
        #: Pids whose crash/recovery lifecycle is reported to the checker
        #: (via :meth:`record_crash` / :meth:`record_recovery`).  For
        #: these, self-delivery is judged per incarnation; for untracked
        #: pids the legacy ``crashed`` waiver applies wholesale.
        self._incarnation_tracked: Set[int] = set()
        self._currently_crashed: Set[int] = set()
        #: Snapshots taken at the last crash of each tracked pid.
        self._submissions_at_crash: Dict[int, int] = {}
        self._own_deliveries_at_crash: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def record(self, pid: int, event: DeliveryEvent) -> None:
        self.traces[pid].append(event)

    def record_batch(self, pid: int, events: Sequence[DeliveryEvent]) -> None:
        """Append a run of delivery events in order (one list op, not
        one :meth:`record` call per event — the batched delivery path)."""
        self.traces[pid].extend(events)

    def record_submission(self, pid: int, count: int = 1) -> None:
        self.submissions[pid] = self.submissions.get(pid, 0) + count

    def record_crash(self, pid: int) -> None:
        """``pid``'s process fail-stopped.

        Snapshots the pid's submission and own-delivery counts: messages
        submitted before the crash belong to the dead incarnation, so a
        later recovered incarnation is only held to self-delivery of what
        it submits *after* recovering.  (Without this, a pid that crashes
        with undelivered submissions in flight and later restarts would
        be flagged for messages the crashed incarnation legitimately
        lost.)  ``submissions`` itself stays cumulative — reports built
        on it are unaffected.
        """
        self._incarnation_tracked.add(pid)
        self._currently_crashed.add(pid)
        self._submissions_at_crash[pid] = self.submissions.get(pid, 0)
        self._own_deliveries_at_crash[pid] = self._own_delivery_count(pid)

    def record_recovery(self, pid: int) -> None:
        """``pid`` restarted with empty state after a crash.

        From here on the pid is live again: self-delivery is enforced for
        submissions of the new incarnation (measured against the
        :meth:`record_crash` snapshot), instead of being waived wholesale
        by the ``crashed`` set.
        """
        self._incarnation_tracked.add(pid)
        self._currently_crashed.discard(pid)

    # ------------------------------------------------------------------

    def check(self, crashed: Iterable[int] = ()) -> None:
        """Run every property check; raises :class:`EvsViolation`."""
        crashed_set = frozenset(crashed)
        self.check_no_duplicates()
        self.check_total_order()
        self.check_configuration_agreement()
        self.check_safe_delivery(crashed_set)
        self.check_virtual_synchrony()
        if self.submissions:
            self.check_self_delivery(crashed_set)

    def violation(self, crashed: Iterable[int] = ()) -> Optional[str]:
        """:meth:`check` as a verdict: the violation's text, or ``None``
        when every guarantee holds (what every report stores)."""
        try:
            self.check(crashed)
        except EvsViolation as violation:
            return str(violation)
        return None

    # ------------------------------------------------------------------

    def _key(self, event: MessageDelivery) -> MessageKey:
        ring = event.origin_ring if event.origin_ring is not None else event.config_id
        return (ring, event.seq)

    def check_no_duplicates(self) -> None:
        for pid, trace in self.traces.items():
            seen: Set[MessageKey] = set()
            for event in trace:
                if not isinstance(event, MessageDelivery):
                    continue
                key = self._key(event)
                if key in seen:
                    raise EvsViolation(f"participant {pid} delivered {key} twice")
                seen.add(key)

    def check_total_order(self) -> None:
        """Common messages appear in the same relative order everywhere.

        Order is compared per ordering domain (ring): within one ring,
        delivery order must follow sequence numbers.
        """
        for pid, trace in self.traces.items():
            per_ring_last: Dict[int, int] = {}
            for event in trace:
                if not isinstance(event, MessageDelivery):
                    continue
                ring, seq = self._key(event)
                last = per_ring_last.get(ring, 0)
                if seq <= last:
                    raise EvsViolation(
                        f"participant {pid} delivered ring {ring} seq {seq} "
                        f"after seq {last} (order violation)"
                    )
                per_ring_last[ring] = seq

    def check_configuration_agreement(self) -> None:
        """Regular configurations with the same id have the same members.

        Transitional configurations derived from the same regular
        configuration may legitimately differ across a partition (each
        side installs its own survivor set); the required property is
        *mutual* agreement — if p delivers transitional (id, M) then every
        member of M that delivers a transitional configuration with that
        id delivers exactly (id, M).
        """
        views: Dict[Tuple[int, bool], FrozenSet[int]] = {}
        for pid, trace in self.traces.items():
            for event in trace:
                if not isinstance(event, ConfigDelivery):
                    continue
                configuration = event.configuration
                key = (configuration.config_id, configuration.transitional)
                previous = views.get(key)
                if previous is None:
                    views[key] = configuration.members
                elif previous != configuration.members:
                    raise EvsViolation(
                        f"configuration {key} installed with different members: "
                        f"{sorted(previous)} vs {sorted(configuration.members)}"
                    )

    def check_safe_delivery(self, crashed: FrozenSet[int]) -> None:
        """A Safe message delivered by anyone must be delivered by every
        non-crashed member of the configuration it was delivered in.

        The configuration a delivery belongs to is the nearest preceding
        configuration-change event in that participant's own trace: normal
        operation follows a regular configuration; recovery deliveries
        after a transitional configuration are guaranteed only with
        respect to the transitional members (EVS).
        """
        delivered_by: Dict[MessageKey, Set[int]] = defaultdict(set)
        requirements: Dict[MessageKey, List[FrozenSet[int]]] = defaultdict(list)
        for pid, trace in self.traces.items():
            current_members: Optional[FrozenSet[int]] = None
            for event in trace:
                if isinstance(event, ConfigDelivery):
                    current_members = event.configuration.members
                    continue
                if not isinstance(event, MessageDelivery):
                    continue
                key = self._key(event)
                delivered_by[key].add(pid)
                if event.is_safe and current_members is not None:
                    requirements[key].append(current_members)
        for key, member_sets in requirements.items():
            required: Set[int] = set()
            for members in member_sets:
                required |= members
            for member in required:
                if member in crashed:
                    continue
                if member not in delivered_by[key]:
                    raise EvsViolation(
                        f"safe message {key} was delivered but non-crashed "
                        f"member {member} never delivered it"
                    )

    def check_virtual_synchrony(self) -> None:
        """Participants moving together through the same transitional
        configuration deliver the same set of that ring's messages before
        the transitional configuration is delivered.

        Only messages ordered by the ring the transitional configuration
        closes (``origin_ring == config_id``) are compared: members that
        arrived from different previous rings legitimately have different
        earlier histories.
        """
        # (transitional config id, members) -> pid -> messages delivered before
        before_transitional: Dict[Tuple[int, FrozenSet[int]], Dict[int, Set[MessageKey]]]
        before_transitional = defaultdict(dict)
        for pid, trace in self.traces.items():
            delivered: Set[MessageKey] = set()
            for event in trace:
                if isinstance(event, MessageDelivery):
                    delivered.add(self._key(event))
                elif isinstance(event, ConfigDelivery) and event.configuration.transitional:
                    ring = event.configuration.closes
                    if ring is None:
                        continue
                    key = (event.configuration.config_id, event.configuration.members)
                    before_transitional[key][pid] = {
                        message for message in delivered if message[0] == ring
                    }
        for (config_id, members), snapshots in before_transitional.items():
            participants = [pid for pid in snapshots if pid in members]
            if len(participants) < 2:
                continue
            reference_pid = participants[0]
            reference = snapshots[reference_pid]
            for pid in participants[1:]:
                if snapshots[pid] != reference:
                    raise EvsViolation(
                        self._format_vs_violation(
                            config_id,
                            members,
                            reference_pid,
                            reference,
                            pid,
                            snapshots[pid],
                        )
                    )

    # -- violation formatting ------------------------------------------

    def _format_vs_violation(
        self,
        config_id: int,
        members: FrozenSet[int],
        reference_pid: int,
        reference: Set[MessageKey],
        pid: int,
        other: Set[MessageKey],
    ) -> str:
        """Build a debuggable virtual-synchrony violation message.

        Includes the diverging pids, the transitional configuration, the
        exact message keys each side is missing, and a minimal trace
        excerpt around each side's transitional delivery — enough to see
        *where* the delivered sets forked without replaying the run.
        """
        lines = [
            f"virtual synchrony violated at transitional config {config_id}",
            f"  members: {sorted(members)}",
            f"  pids {reference_pid} and {pid} disagree on the closed "
            "ring's delivered set:",
            "    delivered only by "
            f"{reference_pid}: {self._format_keys(reference - other)}",
            f"    delivered only by {pid}: {self._format_keys(other - reference)}",
            f"  trace excerpt, pid {reference_pid}:",
        ]
        lines.extend(self._trace_excerpt(reference_pid, config_id))
        lines.append(f"  trace excerpt, pid {pid}:")
        lines.extend(self._trace_excerpt(pid, config_id))
        return "\n".join(lines)

    @staticmethod
    def _format_keys(keys: Set[MessageKey], limit: int = 10) -> str:
        ordered = sorted(keys)
        text = str(ordered[:limit])
        if len(ordered) > limit:
            text += f" (+{len(ordered) - limit} more)"
        return text

    def _format_event(self, event: DeliveryEvent) -> str:
        if isinstance(event, MessageDelivery):
            ring, seq = self._key(event)
            return (
                f"deliver ({ring}, {seq}) "
                f"{event.service.name.lower()} from {event.sender}"
            )
        if isinstance(event, ConfigDelivery):
            configuration = event.configuration
            kind = "transitional" if configuration.transitional else "regular"
            return (
                f"install {kind} config {configuration.config_id} "
                f"members={sorted(configuration.members)}"
            )
        return repr(event)

    def _trace_excerpt(self, pid: int, config_id: int, context: int = 4) -> List[str]:
        """The last ``context`` events before (and including) ``pid``'s
        delivery of transitional configuration ``config_id``."""
        trace = self.traces.get(pid, [])
        anchor = next(
            (
                index
                for index, event in enumerate(trace)
                if isinstance(event, ConfigDelivery)
                and event.configuration.transitional
                and event.config_id == config_id
            ),
            None,
        )
        if anchor is None:
            return ["    (no transitional config delivery recorded)"]
        start = max(0, anchor - context)
        lines = []
        if start > 0:
            lines.append(f"    ... {start} earlier events ...")
        lines.extend("    " + self._format_event(e) for e in trace[start : anchor + 1])
        return lines

    def _own_delivery_count(self, pid: int) -> int:
        return sum(
            1
            for event in self.traces[pid]
            if isinstance(event, MessageDelivery) and event.sender == pid
        )

    def check_self_delivery(self, crashed: FrozenSet[int]) -> None:
        """A live participant delivers everything it submitted.

        For pids with incarnation tracking (:meth:`record_crash` /
        :meth:`record_recovery`), only the *current* incarnation is
        judged: a pid that is crashed right now is waived entirely, and a
        recovered pid answers for submissions after its last crash, not
        for the dead incarnation's in-flight tail.  Untracked pids keep
        the legacy semantics — the ``crashed`` set waives them outright.
        """
        for pid, submitted in self.submissions.items():
            baseline = 0
            if pid in self._incarnation_tracked:
                if pid in self._currently_crashed:
                    continue
                submitted -= self._submissions_at_crash.get(pid, 0)
                baseline = self._own_deliveries_at_crash.get(pid, 0)
            elif pid in crashed:
                continue
            own = self._own_delivery_count(pid) - baseline
            if own < submitted:
                raise EvsViolation(
                    f"participant {pid} submitted {submitted} messages "
                    "(current incarnation) but delivered only "
                    f"{own} of its own"
                )

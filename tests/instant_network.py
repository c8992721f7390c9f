"""An instant (zero-latency) network for exercising the protocol engines.

Test-side, like ``tests/controller_io.py``: nothing in ``src/`` imports
it.  Unit and property tests drive rings of participants on it without
the timing model: messages are queued FIFO and handed to recipients in order,
optionally dropping data messages through a hook.  Because effects are
enqueued in emission order, post-token multicasts genuinely arrive at the
successor *after* the token — the accelerated interleaving — while the
original protocol's sends all precede its token, so both protocols see
faithful message orderings.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.executor import EffectExecutor
from repro.core.messages import DataMessage
from repro.core.participant import AcceleratedRingParticipant
from repro.core.token import initial_token


DropFn = Callable[[int, int, DataMessage], bool]  # (src, dst, message) -> drop?


class _Port:
    """One participant's effect backend on the instant network."""

    def __init__(self, network: "InstantNetwork", pid: int) -> None:
        self._network = network
        self._pid = pid

    def send_data_run(self, run, retransmission: bool) -> None:
        for message in run:
            self._network._multicast(self._pid, message)

    def send_token(self, token, destination: int) -> None:
        self._network._queue.append((destination, "token", token))

    def deliver(self, messages, config_id, origin_ring) -> None:
        self._network.delivered[self._pid].extend(messages)


class InstantNetwork:
    """Drives a ring of sans-io participants over an idealized network."""

    def __init__(
        self,
        participants: Sequence[AcceleratedRingParticipant],
        drop_data: Optional[DropFn] = None,
    ) -> None:
        if not participants:
            raise ValueError("need at least one participant")
        self.participants: Dict[int, AcceleratedRingParticipant] = {
            participant.pid: participant for participant in participants
        }
        self.ring = list(participants[0].ring)
        self.drop_data = drop_data
        #: pid -> list of messages delivered to the application, in order.
        self.delivered: Dict[int, List[DataMessage]] = {
            pid: [] for pid in self.participants
        }
        self._queue: deque = deque()  # (dst_pid, kind, payload)
        self._executors: Dict[int, EffectExecutor] = {
            pid: EffectExecutor(_Port(self, pid)) for pid in self.participants
        }
        self._token_dispatches = 0
        self.data_frames_sent = 0
        self.data_frames_dropped = 0

    # ------------------------------------------------------------------

    def inject_initial_token(self, ring_id: int = 1) -> None:
        leader = self.ring[0]
        self._queue.append((leader, "token", initial_token(ring_id)))

    def run(self, max_rounds: int = 50, max_steps: int = 1_000_000) -> None:
        """Process queued traffic until the token has been dispatched
        ``max_rounds * len(ring)`` times or the queue drains."""
        max_token_dispatches = max_rounds * len(self.ring)
        steps = 0
        while self._queue:
            steps += 1
            if steps > max_steps:
                raise RuntimeError(f"instant network did not settle in {max_steps} steps")
            dst, kind, payload = self._queue.popleft()
            participant = self.participants[dst]
            if kind == "token":
                if self._token_dispatches >= max_token_dispatches:
                    continue
                self._token_dispatches += 1
                effects = participant.on_token(payload)
            else:
                effects = participant.on_data(payload)
            self._apply(participant, effects)

    def run_until_delivered(
        self, total_messages: int, max_rounds: int = 500
    ) -> None:
        """Run until every participant has delivered ``total_messages``
        messages (or the round budget runs out)."""
        max_token_dispatches = max_rounds * len(self.ring)
        while self._queue and self._token_dispatches < max_token_dispatches:
            dst, kind, payload = self._queue.popleft()
            participant = self.participants[dst]
            if kind == "token":
                self._token_dispatches += 1
                effects = participant.on_token(payload)
            else:
                effects = participant.on_data(payload)
            self._apply(participant, effects)
            if all(
                len(log) >= total_messages for log in self.delivered.values()
            ) and self._all_stable():
                return

    def _all_stable(self) -> bool:
        return all(
            participant.pending_count == 0 for participant in self.participants.values()
        )

    # ------------------------------------------------------------------

    def _apply(self, source: AcceleratedRingParticipant, effects: list) -> None:
        """Execute what ``source`` just emitted (test spies override this)."""
        self._executors[source.pid].execute(effects)

    def _multicast(self, src: int, message: DataMessage) -> None:
        for dst in self.ring:
            if dst == src:
                continue
            self.data_frames_sent += 1
            if self.drop_data is not None and self.drop_data(src, dst, message):
                self.data_frames_dropped += 1
                continue
            self._queue.append((dst, "data", message))

    # ------------------------------------------------------------------
    # Assertions shared by tests
    # ------------------------------------------------------------------

    def delivered_seqs(self, pid: int) -> List[int]:
        return [message.seq for message in self.delivered[pid]]

    def assert_total_order(self) -> None:
        """Every participant delivered the same messages in the same order
        (up to a common prefix for participants that are behind)."""
        logs = [self.delivered_seqs(pid) for pid in self.ring]
        reference = max(logs, key=len)
        for log in logs:
            if log != reference[: len(log)]:
                raise AssertionError(
                    f"delivery logs diverge: {log[:20]} vs {reference[:20]}"
                )

    def assert_gapless(self) -> None:
        """Delivered sequence numbers are exactly 1..n with no gaps."""
        for pid in self.ring:
            seqs = self.delivered_seqs(pid)
            if seqs != list(range(1, len(seqs) + 1)):
                raise AssertionError(f"participant {pid} delivery has gaps: {seqs[:30]}")

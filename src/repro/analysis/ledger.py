"""The transmit ledger: one row per frame a simulated host hands its NIC.

Paper §III-A and Fig. 1 argue from one record — who put what on the
wire, and when.  Every simulated host transmits through one place, its
NIC's :meth:`Link.send <repro.net.link.Link.send>`, so a
:class:`TransmitLedger` taps that and nothing else: it reads the bare
``ProtocolHost`` and the ``MembershipHost`` alike, and a restarted
process (a fresh host on the same NIC) is recorded again.  A row is
taken when the frame is enqueued at the NIC, not when it starts
serializing.  From the rows come

* :meth:`~TransmitLedger.sequence_of` — Fig. 1's per-host schedule;
* :meth:`~TransmitLedger.rotation_times` — token rotations at one host
  (the accelerated token comes back sooner);
* :meth:`~TransmitLedger.wire_stats` — dead air: the share of a window
  in which no NIC is putting data-port frames on the wire;
* :meth:`~TransmitLedger.cpu_share` — per-host CPU busy share, the
  single-core budget of §I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Tuple

from repro.core.messages import DataMessage
from repro.core.token import RegularToken
from repro.net.fabric import FabricTopology
from repro.net.fragment import CoalescedDatagram
from repro.net.packet import Frame, PortKind

#: Token departures from a host left out of its rotation times (warm-up).
WARMUP_ROTATIONS = 3


class Mark(NamedTuple):
    """What a datagram carries on the schedule: the regular token's seq
    (``post_token`` False, ``round`` 0), or one data message's."""

    seq: int
    post_token: bool
    round: int


class Row(NamedTuple):
    """One frame handed to a host's NIC."""

    time: float
    host: int
    port: PortKind
    size: int
    #: The datagram's first (or only) fragment.
    first: bool
    #: Read off a first fragment's payload, in run order; () otherwise.
    marks: Tuple[Mark, ...]


def _marks(payload: object) -> Tuple[Mark, ...]:
    if isinstance(payload, RegularToken):
        return (Mark(payload.seq, False, 0),)
    if isinstance(payload, DataMessage):
        return (Mark(payload.seq, payload.post_token, payload.round),)
    if isinstance(payload, CoalescedDatagram):
        return tuple(Mark(m.seq, m.post_token, m.round) for m in payload.messages)
    return ()  # a membership control message


@dataclass
class WireStats:
    """Wire activity over a window (seconds)."""

    window: float
    busy_time: float
    idle_time: float
    idle_gaps: List[float]

    @property
    def dead_air_fraction(self) -> float:
        if self.window <= 0:
            raise ValueError("empty measurement window")
        return self.idle_time / self.window

    @property
    def longest_gap(self) -> float:
        return max(self.idle_gaps) if self.idle_gaps else 0.0


class TransmitLedger:
    """Taps every host NIC of ``topology`` (a cluster's ``.topology``)."""

    def __init__(self, topology: FabricTopology) -> None:
        self.rows: List[Row] = []
        self._sim = topology.sim
        self._hosts = topology.hosts
        for host_id, host in topology.hosts.items():
            host.nic.tap = self._recorder(host_id)
        self.mark()

    def _recorder(self, host_id: int):
        rows, sim = self.rows, self._sim

        def record(frame: Frame) -> None:
            first = frame.fragment is None or frame.fragment[1] == 0
            marks = _marks(frame.payload) if first else ()
            rows.append(Row(sim.now, host_id, frame.kind, frame.size, first, marks))

        return record

    # ------------------------------------------------------------------

    def schedule(self) -> Iterator[Tuple[Row, Mark]]:
        """Every datagram's marks, in send order: one entry per token
        send and per data message, however the messages were packed."""
        for row in self.rows:
            for mark in row.marks:
                yield row, mark

    def sequence_of(self, host: int) -> List[str]:
        """``host``'s schedule like ``['1', '2', 'T5', '3', '4', '5']``:
        data seqs interleaved with token sends (T prefix)."""
        return [
            f"T{mark.seq}" if row.port is PortKind.TOKEN else str(mark.seq)
            for row, mark in self.schedule()
            if row.host == host
        ]

    def rotation_times(self, host: int) -> List[float]:
        """Times between successive regular-token departures from
        ``host`` (one full rotation each), after the warm-up."""
        departures = [
            row.time
            for row in self.rows
            if row.host == host and row.port is PortKind.TOKEN and row.marks
        ][WARMUP_ROTATIONS:]
        return [later - earlier for earlier, later in zip(departures, departures[1:])]

    def mean_rotation(self, host: int) -> float:
        times = self.rotation_times(host)
        if not times:
            raise ValueError("no completed rotations observed")
        return sum(times) / len(times)

    def wire_stats(self, start: float, stop: float) -> WireStats:
        """Busy/idle accounting of data-port frames over ``[start, stop]``.

        A frame occupies its wire from enqueue to enqueue plus its
        serialization delay — approximate, with the same bias for every
        protocol, so comparisons are fair.
        """
        if stop <= start:
            raise ValueError("stop must exceed start")
        hosts = self._hosts
        intervals = []
        for row in self.rows:
            if row.port is PortKind.DATA:
                end = row.time + hosts[row.host].params.serialization_delay(row.size)
                if end > start and row.time < stop:
                    intervals.append((max(row.time, start), min(end, stop)))
        intervals.sort()
        busy = 0.0
        gaps: List[float] = []
        cursor = start
        for s, e in intervals:
            if s > cursor:
                gaps.append(s - cursor)
            busy += max(0.0, e - max(s, cursor))
            cursor = max(cursor, e)
        if cursor < stop:
            gaps.append(stop - cursor)
        total = stop - start
        return WireStats(window=total, busy_time=busy, idle_time=total - busy, idle_gaps=gaps)

    def mark(self) -> None:
        """Start (or restart) the CPU measurement window now."""
        self._t0 = self._sim.now
        self._busy0 = {pid: host.cpu.busy_time for pid, host in self._hosts.items()}

    def cpu_share(self) -> Dict[int, float]:
        """Each host's CPU busy share since :meth:`mark`."""
        elapsed = self._sim.now - self._t0
        if elapsed <= 0:
            raise ValueError("no time has elapsed since mark()")
        return {
            pid: (host.cpu.busy_time - self._busy0[pid]) / elapsed
            for pid, host in self._hosts.items()
        }

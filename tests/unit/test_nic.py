"""Unit tests for the link as a host NIC's transmit path."""

import random
from collections import deque
from heapq import heappush

import pytest

from repro.net.link import NIC_QUEUE_BYTES, Link
from repro.net.packet import Frame, PortKind
from repro.net.params import GIGABIT
from repro.net.simulator import Simulator


def make_nic(capacity=NIC_QUEUE_BYTES):
    sim = Simulator()
    wire = []
    nic = Link(sim, GIGABIT, wire.append, capacity)
    return sim, nic, wire


def frame(size=1000):
    return Frame(src=0, dst=1, kind=PortKind.DATA, size=size, payload=None)


def test_single_frame_arrives_after_serialization_and_propagation():
    sim, nic, wire = make_nic()
    assert nic.send(frame(1500))
    sim.run_until_idle()
    assert len(wire) == 1
    assert sim.now == pytest.approx(
        GIGABIT.serialization_delay(1500) + GIGABIT.propagation
    )


def test_frames_serialize_back_to_back():
    sim, nic, wire = make_nic()
    nic.send(frame(1500))
    nic.send(frame(1500))
    sim.run_until_idle()
    assert len(wire) == 2
    assert sim.now == pytest.approx(
        2 * GIGABIT.serialization_delay(1500) + GIGABIT.propagation
    )


def test_fifo_order_preserved():
    sim, nic, wire = make_nic()
    first, second = frame(1500), frame(100)
    nic.send(first)
    nic.send(second)
    sim.run_until_idle()
    assert wire == [first, second]


def test_tx_queue_overflow_drops():
    sim, nic, wire = make_nic(capacity=2500)
    assert nic.send(frame(1400))
    assert nic.send(frame(1400))  # first is in flight, queue holds this one
    assert not nic.send(frame(1400))
    sim.run_until_idle()
    assert nic.frames_dropped == 1
    assert len(wire) == 2


def test_counters():
    sim, nic, _ = make_nic()
    nic.send(frame(700))
    nic.send(frame(300))
    sim.run_until_idle()
    assert nic.frames_sent == 2
    assert nic.bytes_sent == 1000
    assert nic.queued_bytes == 0
    assert nic.peak_queue_bytes == 700  # the first frame, before it left


#: More frames than the 256 slots the link's queue used to start with.
DEEP = 1000


def test_a_deep_queue_releases_in_fifo_order_back_to_back():
    sim, nic, _ = make_nic()
    sizes = [(64, 700, 1500, 100)[index % 4] for index in range(DEEP)]
    frames = [frame(size) for size in sizes]
    wire = []
    nic._deliver = lambda sent: wire.append((sim.now, sent))
    for sent in frames:
        assert nic.send(sent)
    # The first frame is serializing; the rest wait, in order.
    assert list(nic._frames) == frames[1:]
    assert nic.queued_bytes == sum(sizes[1:])
    sim.run_until_idle()
    assert [sent for _, sent in wire] == frames
    # Each frame starts when the one before it finishes: the same float
    # arithmetic the link applies, one frame at a time.
    finish, expected = 0.0, []
    for size in sizes:
        finish = finish + (size + GIGABIT.per_frame_overhead) * 8.0 / GIGABIT.rate_bps
        expected.append(finish + GIGABIT.propagation)
    assert [time for time, _ in wire] == expected
    assert nic.queued_bytes == 0 and not nic._frames


# ----------------------------------------------------------------------
# Differential: the idle link starts a frame at once
# ----------------------------------------------------------------------


class QueueLink:
    """The reference link: every frame goes through the queue, and an idle
    link pops it again at once.  ``Link.send`` skips that push and pop
    when idle; everything observable must stay the same."""

    def __init__(self, sim, params, deliver, capacity):
        self._sim = sim
        self._deliver = deliver
        self._frames = deque()
        self._queued_bytes = 0
        self._capacity = capacity
        self._busy = False
        self._overhead = params.per_frame_overhead
        self._rate_bps = params.rate_bps
        self._propagation = params.propagation
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_dropped = 0
        self.peak_queue_bytes = 0

    def send(self, frame):
        queued = self._queued_bytes + frame.size
        if queued > self._capacity:
            self.frames_dropped += 1
            return False
        self._frames.append(frame)
        self._queued_bytes = queued
        if queued > self.peak_queue_bytes:
            self.peak_queue_bytes = queued
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self):
        if not self._frames:
            self._busy = False
            return
        self._busy = True
        frame = self._frames.popleft()
        size = frame.size
        self._queued_bytes -= size
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        heappush(
            sim._queue,
            (sim.now + (size + self._overhead) * 8.0 / self._rate_bps, seq, self._finish, (frame,)),
        )

    def _finish(self, frame):
        self.frames_sent += 1
        self.bytes_sent += frame.size
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim.now + self._propagation, seq, self._deliver, (frame,)))
        self._start_next()


def drive(link_class, seed):
    """Run one seeded send schedule through a fresh link; everything a
    caller can observe of it."""
    rng = random.Random(seed)
    sim = Simulator()
    delivered = []
    capacity = rng.choice((3000, 6000, NIC_QUEUE_BYTES))
    #: (time, link busy before the send, accepted) per send.
    sends = []
    #: Each frame's send index, by object: what the two links are compared on.
    index_of = {}

    def send_burst(count):
        for _ in range(count):
            size = rng.choice((64, 100, 700, 1500))
            busy = link._busy
            sent = Frame(0, 1, PortKind.DATA, size, None)
            index_of[sent] = len(sends)
            accepted = link.send(sent)
            sends.append((sim.now, busy, accepted))
        if not sparse and rng.random() < 0.3:
            # Another send at the very instant a frame finishes
            # serializing: it runs after the finish (higher seq), when
            # the link may just have gone idle.
            finishing = [entry[0] for entry in sim._queue if entry[2] == link._finish]
            if finishing:
                sim.schedule_at(rng.choice(finishing), send_burst, 1)

    def on_wire(frame):
        # A send from inside the delivery.
        if not sparse and rng.random() < 0.3:
            send_burst(rng.randint(1, 3))

    link = link_class(sim, GIGABIT, on_wire, capacity)
    # Sparse schedules space single sends wider than a frame's
    # serialization, so every send finds the link idle.  Dense ones
    # queue, burst and overrun the small capacities, on a time grid
    # coarse enough that several sends often share one instant.
    sparse = rng.random() < 0.3
    if sparse:
        for slot in rng.sample(range(40), 15):
            sim.schedule_at(slot * 40e-6, send_burst, 1)
    else:
        for _ in range(60):
            sim.schedule_at(rng.randrange(40) * 2e-6, send_burst, rng.choice((1, 1, 2, 5, 12)))
    finished = []
    while sim._queue or sim._timers:
        # The next event is the earlier of the two heaps' heads.
        time, seq, callback, args = min(heap[0] for heap in (sim._queue, sim._timers) if heap)
        if callback == link._deliver:
            delivered.append((time, seq, index_of[args[0]]))
        elif callback == link._finish:
            finished.append((time, seq, index_of[args[0]]))
        sim.step()
    counters = (link.frames_sent, link.bytes_sent, link.frames_dropped, link.peak_queue_bytes)
    return delivered, finished, sends, counters, sim._seq


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_idle_start_matches_the_ring_path(seed):
    reference = drive(QueueLink, seed)
    assert drive(Link, seed) == reference
    delivered, finished, sends, counters, _ = reference
    assert counters[0] > 0
    assert len(delivered) == len(finished) == counters[0]
    assert counters[0] == [accepted for _, _, accepted in sends].count(True)


def test_the_schedules_reach_every_case():
    runs = [drive(QueueLink, seed) for seed in SEEDS]
    sends = [send for run in runs for send in run[2]]
    assert any(not busy for _, busy, _ in sends)  # idle starts
    assert any(busy and accepted for _, busy, accepted in sends)  # queued behind
    assert any(not accepted for _, _, accepted in sends)  # tail drops
    times = [time for time, _, _ in sends]
    assert len(set(times)) < len(times)  # several sends at one instant
    finish_times = {time for run in runs for time, _, _ in run[1]}
    # A send at the instant a frame finishes, one of them to a link
    # that just went idle.
    assert any(time in finish_times and not busy for time, busy, _ in sends)

"""Unit tests for the link as a host NIC's transmit path."""

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

"""The sim↔real oracle's one schedule interpreter, over a stub substrate.

``_replay`` must drive any substrate through exactly the calls
:func:`build_schedule` dictates — that is what locks the simulator and
the loopback fleet to the same submissions — and must finish the script
even when a barrier times out.
"""

import asyncio
import dataclasses

import pytest

from repro.conformance.realtime import (
    RealtimeWorkload,
    _replay,
    _RealRing,
    _SimRing,
    build_schedule,
)
from repro.conformance.variants import MARK, MSG, PHASE_MAIN, PHASE_PROBE, ConformanceTap
from repro.conformance.workload import make_label

WORKLOAD = RealtimeWorkload(num_hosts=3, bursts=5, burst_size=2, probe_bursts=1)


class _Message:
    def __init__(self, payload):
        self.payload = payload


class RecordingRing:
    """A substrate that delivers every submission to every live pid at
    once and records what the interpreter asked of it."""

    def __init__(self, num_hosts, failing_waits=()):
        self.tap = ConformanceTap()
        self.live = list(range(num_hosts))
        self.calls = []
        self.failing_waits = set(failing_waits)
        self.waits = 0

    def submit(self, pid, label):
        self.calls.append(("submit", pid, label))
        for receiver in self.live:
            self.tap.on_deliver_batch(receiver, (_Message(label),), 1, 1)

    async def crash(self, pid):
        self.calls.append(("crash", pid))
        self.live.remove(pid)

    async def restart(self, pid):
        self.calls.append(("restart", pid))
        self.live = sorted(self.live + [pid])

    def ring_is(self, members):
        self.calls.append(("ring_is", members))
        return tuple(self.live) == members

    def live_pids(self):
        return list(self.live)

    async def wait(self, check, timeout):
        self.waits += 1
        if self.waits in self.failing_waits:
            self.calls.append(("timeout",))
            return False
        return check()


def expected_calls(workload):
    """The call sequence as a pure function of the schedule."""
    everyone = tuple(range(workload.num_hosts))
    calls = [("ring_is", everyone)]
    sent = {}
    for event in build_schedule(workload):
        if event[0] == "burst":
            _, sender, size, _live = event
            for _ in range(size):
                index = sent.get(sender, 0)
                sent[sender] = index + 1
                label = make_label(sender, index, pad_to=workload.payload_size)
                calls.append(("submit", sender, label))
        elif event[0] == "crash":
            calls += [event, ("ring_is", tuple(p for p in everyone if p != event[1]))]
        elif event[0] == "restart":
            calls += [event, ("ring_is", everyone)]
    return calls


@pytest.mark.parametrize("crash", [False, True])
def test_call_sequence_is_a_pure_function_of_the_schedule(crash):
    workload = dataclasses.replace(WORKLOAD, crash=crash)
    ring = RecordingRing(workload.num_hosts)
    assert asyncio.run(_replay(ring, workload)) is True
    assert ring.calls == expected_calls(workload)
    # One wait for the first ring, then one per burst / crash / restart.
    schedule = build_schedule(workload)
    assert ring.waits == 1 + sum(event[0] != "probe" for event in schedule)


def test_phase_marks_bracket_the_streams_and_probe_marks_only_the_live():
    workload = RealtimeWorkload(
        num_hosts=3, bursts=3, burst_size=1, probe_bursts=1,
        crash=True, crash_burst=1, restart_burst=99,  # crashed and never restarted
    )
    ring = RecordingRing(workload.num_hosts)
    assert asyncio.run(_replay(ring, workload))
    for pid in (0, 1):
        marks = [event[1] for event in ring.tap.streams[pid] if event[0] == MARK]
        assert marks == [PHASE_MAIN, PHASE_PROBE]
    crashed = ring.tap.streams[2]
    assert [event[1] for event in crashed if event[0] == MARK] == [PHASE_MAIN]
    assert sum(event[0] == MSG for event in crashed) == 1  # the pre-crash burst


def test_a_timed_out_wait_fails_the_run_but_the_script_completes():
    workload = dataclasses.replace(WORKLOAD, crash=True)
    ring = RecordingRing(workload.num_hosts, failing_waits={3})
    assert asyncio.run(_replay(ring, workload)) is False
    completed = [call for call in ring.calls if call != ("timeout",)]
    # The third wait's check never ran; everything after it still did.
    full = expected_calls(workload)
    assert [c for c in completed if c[0] != "ring_is"] == [
        c for c in full if c[0] != "ring_is"
    ]
    assert ("restart", WORKLOAD.num_hosts - 1) in ring.calls


def test_both_substrates_expose_the_surface_the_interpreter_uses():
    for substrate in (_SimRing, _RealRing):
        for name in ("submit", "crash", "restart", "ring_is", "wait", "live_pids"):
            assert callable(getattr(substrate, name)), (substrate, name)

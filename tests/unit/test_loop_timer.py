"""The runtime's timer rule: ``RingNode.reschedule`` == cancel + arm.

The runtime twin of ``test_simulator.py``'s reschedule equivalence: a
seeded script of arm / re-arm (later, earlier, cancelled, fired, from
inside the timer's own callback) / cancel runs once through the node's
``schedule`` / ``reschedule`` and once through ``handle.cancel()`` +
``call_at``, against a fake loop that offers only ``call_at`` and
``time``; both must fire the same callbacks at the same times.

asyncio orders timers due at the same instant arbitrarily, so the
script draws continuous delays: no two deadlines tie, and the fire order
is fully determined by the deadlines.
"""

import heapq
import random

import pytest

from repro.runtime.node import LoopTimer, RingNode
from repro.runtime.ports import ephemeral_ring_addresses


class _Handle:
    __slots__ = ("callback", "args", "cancelled")

    def __init__(self, callback, args):
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _FakeLoop:
    """``call_at`` and ``time`` over a heap; nothing else exists."""

    def __init__(self):
        self.now = 0.0
        self.armed = 0
        self._heap = []

    def time(self):
        return self.now

    def call_at(self, when, callback, *args):
        handle = _Handle(callback, args)
        self.armed += 1
        heapq.heappush(self._heap, (when, self.armed, handle))
        return handle

    def run_until(self, until):
        heap = self._heap
        while heap and heap[0][0] <= until:
            when, _seq, handle = heapq.heappop(heap)
            if not handle.cancelled:
                self.now = when
                handle.callback(*handle.args)
        self.now = max(self.now, until)

    @property
    def pending(self):
        return sum(not handle.cancelled for _when, _seq, handle in self._heap)


def _node_on(loop):
    node = RingNode(0, ephemeral_ring_addresses(range(1)))
    node._loop = loop  # what start() binds
    return node


def _native(loop):
    node = _node_on(loop)
    return node.schedule, node.reschedule


def _by_definition(loop):
    def schedule(delay, callback, *args):
        return loop.call_at(loop.time() + delay, callback, *args)

    def reschedule(handle, delay, callback, *args):
        handle.cancel()
        return schedule(delay, callback, *args)

    return schedule, reschedule


def _random_interleaving(seed, timers):
    """Run one seeded script of timer operations, issued between run
    segments and from inside callbacks (a timer re-arming itself
    included); return the fire order and times, and the loop."""
    rng = random.Random(seed)
    loop = _FakeLoop()
    schedule, reschedule = timers(loop)
    fired = []
    handles = []
    labels = iter(range(10**9))

    def operate(ops, own=None):
        for _ in range(ops):
            op = rng.random()
            delay = rng.uniform(0.0, 1.0)
            if op < 0.25 or not handles:
                handles.append(schedule(delay, fire, next(labels)))
            elif op < 0.4:
                rng.choice(handles).cancel()
            else:
                # Live, cancelled, fired, and (from a callback) the
                # firing timer itself are all fair game.
                index = own if own is not None and op < 0.55 else rng.randrange(len(handles))
                handles[index] = reschedule(handles[index], delay, fire, next(labels))

    def fire(label):
        fired.append((label, loop.now))
        own = next((i for i, h in enumerate(handles) if h.args == (label,)), None)
        operate(rng.randrange(3), own)

    for _ in range(80):
        operate(rng.randrange(4))
        loop.run_until(loop.now + rng.uniform(0.0, 0.5))
    loop.run_until(float("inf"))
    assert loop.pending == 0
    return fired, loop


@pytest.mark.parametrize("seed", range(16))
def test_reschedule_is_cancel_plus_call_at(seed):
    native, native_loop = _random_interleaving(seed, _native)
    definition, definition_loop = _random_interleaving(seed, _by_definition)
    assert native == definition
    assert len(native) > 30  # the script did something
    times = [time for _label, time in native]
    assert times == sorted(times)
    # Moves later were field writes: fewer handles reached the loop.
    assert native_loop.armed < definition_loop.armed


def test_moving_a_live_timer_later_arms_nothing_until_the_old_deadline():
    loop = _FakeLoop()
    node = _node_on(loop)
    seen = []
    timer = node.schedule(1.0, seen.append, "loss")
    for step in range(1, 100):
        loop.run_until(step * 0.01)
        assert node.reschedule(timer, 1.0, seen.append, "loss") is timer
    assert loop.armed == 1
    loop.run_until(1.5)  # the old handle fires at 1.0 and arms once more
    assert seen == [] and loop.armed == 2
    loop.run_until(2.5)
    assert seen == ["loss"] and loop.now == 2.5
    assert loop.pending == 0


def test_moving_earlier_or_re_arming_a_spent_timer_is_cancel_plus_arm():
    loop = _FakeLoop()
    node = _node_on(loop)
    seen = []
    timer = node.schedule(1.0, seen.append, "x")
    earlier = node.reschedule(timer, 0.25, seen.append, "x")
    assert isinstance(earlier, LoopTimer) and earlier is not timer
    assert loop.pending == 1
    loop.run_until(0.3)
    assert seen == ["x"]
    again = node.reschedule(earlier, 0.5, seen.append, "y")  # fired
    assert again is not earlier
    again.cancel()
    assert node.reschedule(again, 0.5, seen.append, "z") is not again  # cancelled
    loop.run_until(5.0)
    assert seen == ["x", "z"]
    assert loop.pending == 0


def test_cancel_after_a_move_later_cancels_the_armed_handle():
    loop = _FakeLoop()
    node = _node_on(loop)
    seen = []
    timer = node.schedule(0.5, seen.append, "loss")
    loop.run_until(0.25)
    node.reschedule(timer, 0.5, seen.append, "loss")
    timer.cancel()
    assert loop.pending == 0
    loop.run_until(5.0)
    assert seen == [] and loop.armed == 1

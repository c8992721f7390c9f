"""Unit tests for the discrete-event engine."""

import heapq
import random

import pytest

from repro.net.simulator import _COMPACT_MIN, _HANDLE, EventHandle, Simulator


def _entries(sim):
    """Entries in both heaps, cancelled ones included."""
    return len(sim._queue) + len(sim._timers)


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(0.3, seen.append, "c")
    sim.schedule(0.1, seen.append, "a")
    sim.schedule(0.2, seen.append, "b")
    sim.run_until_idle()
    assert seen == ["a", "b", "c"]
    assert sim.now == pytest.approx(0.3)


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    seen = []
    for label in "abcde":
        sim.schedule(1.0, seen.append, label)
    sim.run_until_idle()
    assert seen == list("abcde")


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    handle = sim.schedule(0.1, seen.append, "no")
    sim.schedule(0.2, seen.append, "yes")
    handle.cancel()
    sim.run_until_idle()
    assert seen == ["yes"]


def test_cancel_releases_callback_references():
    sim = Simulator()
    big = ["payload"]
    handle = sim.schedule(0.1, big.append, "x")
    handle.cancel()
    assert handle.args == ()
    sim.run_until_idle()
    assert big == ["payload"]


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    seen = []
    sim.schedule(0.5, seen.append, "late")
    sim.run(until=0.25)
    assert sim.now == pytest.approx(0.25)
    assert seen == []
    sim.run(until=1.0)
    assert seen == ["late"]
    assert sim.now == pytest.approx(1.0)


def test_run_until_advances_clock_when_idle():
    sim = Simulator()
    sim.run(until=2.0)
    assert sim.now == pytest.approx(2.0)


def test_events_scheduled_during_execution_run():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(0.1, seen.append, "second")

    sim.schedule(0.1, first)
    sim.run_until_idle()
    assert seen == ["first", "second"]
    assert sim.now == pytest.approx(0.2)


def test_max_events_limit():
    sim = Simulator()

    def loop():
        sim.schedule(0.001, loop)

    sim.schedule(0.001, loop)
    sim.run(max_events=100)
    assert sim.events_processed == 100


def test_run_until_idle_backstop_raises():
    sim = Simulator()

    def loop():
        sim.schedule(0.001, loop)

    sim.schedule(0.001, loop)
    with pytest.raises(RuntimeError):
        sim.run_until_idle(max_events=50)


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(1.0, lambda: None)
    drop.cancel()
    assert sim.pending_events == 1
    keep.cancel()
    assert sim.pending_events == 0


def test_determinism_across_runs():
    def run_once():
        sim = Simulator()
        seen = []
        for index in range(50):
            sim.schedule((index * 7 % 13) / 100.0, seen.append, index)
        sim.run_until_idle()
        return seen

    assert run_once() == run_once()


# ----------------------------------------------------------------------
# Late cancel: a fired handle is inert
# ----------------------------------------------------------------------


def test_cancel_after_fire_does_not_touch_the_bookkeeping():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)
    assert sim.pending_events == 1
    first.cancel()  # already fired: nothing of it is in the heaps
    assert sim.pending_events == 1
    assert _entries(sim) == 1
    sim.run_until_idle()
    assert sim.pending_events == 0
    assert sim.events_processed == 2


# ----------------------------------------------------------------------
# reschedule == cancel + schedule
# ----------------------------------------------------------------------


def _native(sim, handle, delay, callback, *args):
    return sim.reschedule(handle, delay, callback, *args)


def _by_definition(sim, handle, delay, callback, *args):
    handle.cancel()
    return sim.schedule(delay, callback, *args)


#: Quantized so that timestamps tie often (0.25 is exact in binary).
_DELAYS = (0.0, 0.25, 0.25, 0.5, 0.5, 0.75, 1.0, 1.5)
#: Arrivals scheduled far past every run segment, as a workload's are.
_FAR = (4.0, 8.0, 16.0)


def _random_interleaving(seed, rearm, drive, make=Simulator):
    """Drive one simulator through a seeded script of schedule / post /
    cancel / re-arm operations, far ``schedule_at`` arrivals, and a timer
    and a post due at one instant, issued both between run segments and
    from inside callbacks (including a handle re-arming itself), and
    return everything observable: fire order and times, and the counters
    after every segment."""
    rng = random.Random(seed)
    sim = make()
    fired = []
    handles = []
    labels = iter(range(10**9))

    def operate(own=None):
        for _ in range(rng.randrange(3)):
            op = rng.random()
            delay = rng.choice(_DELAYS)
            if op < 0.25 or not handles:
                handles.append(sim.schedule(delay, fire, next(labels)))
            elif op < 0.3:
                at = sim.now + rng.choice(_FAR)
                handles.append(sim.schedule_at(at, fire, next(labels)))
            elif op < 0.35:
                sim.post(delay, fire, next(labels))
            elif op < 0.4:
                # A timer and a post at one instant, in either order.
                if rng.random() < 0.5:
                    sim.post(delay, fire, next(labels))
                handles.append(sim.schedule(delay, fire, next(labels)))
                sim.post(delay, fire, next(labels))
            elif op < 0.55:
                rng.choice(handles).cancel()
            else:
                # Live, cancelled, fired, and (when called from a
                # callback) the firing handle itself are all fair game.
                index = own if own is not None and op < 0.7 else rng.randrange(len(handles))
                handles[index] = rearm(sim, handles[index], delay, fire, next(labels))

    def fire(label):
        fired.append((label, sim.now))
        own = next((i for i, h in enumerate(handles) if h.args == (label,)), None)
        operate(own)

    snapshots = []
    for _ in range(60):
        operate()
        drive(sim, rng)
        snapshots.append((sim.now, sim.events_processed, sim.pending_events))
    sim.run_until_idle()
    snapshots.append((sim.now, sim.events_processed, sim.pending_events))
    return fired, snapshots


def _drive_until(sim, rng):
    sim.run(until=sim.now + rng.choice(_DELAYS))


def _drive_max_events(sim, rng):
    sim.run(max_events=rng.randrange(1, 6))


def _drive_step(sim, rng):
    for _ in range(rng.randrange(1, 4)):
        sim.step()


def _drive_mixed(sim, rng):
    rng.choice((_drive_until, _drive_max_events, _drive_step))(sim, rng)


@pytest.mark.parametrize(
    "drive", [_drive_until, _drive_max_events, _drive_step, _drive_mixed]
)
@pytest.mark.parametrize("seed", range(12))
def test_reschedule_is_cancel_plus_schedule(seed, drive):
    native = _random_interleaving(seed, _native, drive)
    definition = _random_interleaving(seed, _by_definition, drive)
    assert native == definition
    fired, snapshots = native
    assert len(fired) > 20  # the script did something
    times = [time for _label, time in fired]
    assert times == sorted(times)
    assert len(set(times)) < len(times)  # ties were exercised
    assert snapshots[-1][2] == 0


class OneHeap(Simulator):
    """The dispatch rule the two heaps must reproduce: every entry on one
    heap, popped in ``(time, seq)`` order one event at a time."""

    def schedule_at(self, time, callback, *args):
        if time < self.now:
            raise ValueError(f"cannot schedule event at {time} < now {self.now}")
        self._seq = seq = self._seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        heapq.heappush(self._queue, (time, seq, handle, _HANDLE))
        return handle

    def run(self, until=None, max_events=None):
        queue = self._queue
        processed = 0
        while queue:
            if max_events is not None and processed >= max_events:
                return
            time = queue[0][0]
            if until is not None and time > until:
                self.now = until
                return
            _t, seq, callback, args = heapq.heappop(queue)
            if args is _HANDLE:
                handle = callback
                if handle.cancelled:
                    self._cancelled_pending -= 1
                    continue
                if handle.seq != seq:
                    heapq.heappush(queue, (handle.time, handle.seq, handle, _HANDLE))
                    continue
                handle._sim = None
                callback, args = handle.callback, handle.args
            self.now = time
            self._events_processed += 1
            processed += 1
            callback(*args)
        if until is not None and self.now < until:
            self.now = until


@pytest.mark.parametrize(
    "drive", [_drive_until, _drive_max_events, _drive_step, _drive_mixed]
)
@pytest.mark.parametrize("seed", range(12))
def test_two_heaps_dispatch_as_one_heap(seed, drive):
    two = _random_interleaving(seed, _native, drive)
    one = _random_interleaving(seed, _native, drive, OneHeap)
    assert two == one
    assert len(two[0]) > 20  # the script did something


def test_far_arrivals_stay_out_of_the_frame_queue():
    """5 000 arrivals pre-scheduled over a second leave ``_queue`` to the
    chain of posts that runs beside them, and still fire in key order."""
    sim = Simulator()
    rng = random.Random(46)
    tick = 2.0**-13  # exact in binary, so arrivals and posts tie
    fired = []
    longest = []

    def arrive(index):
        fired.append((sim.now, 0, index))
        longest.append(len(sim._queue))

    def link(count):
        fired.append((sim.now, 1, count))
        longest.append(len(sim._queue))
        if count:
            sim.post(tick, link, count - 1)

    arrivals = [(rng.randrange(8192) * tick, 0, index) for index in range(5000)]
    for when, _kind, index in arrivals:
        sim.schedule_at(when, arrive, index)
    sim.post(tick, link, 8191)
    sim.run(until=2.0)
    assert max(longest) <= 8
    assert sim.events_processed == len(fired) == 5000 + 8192
    # Key order: by time, then by when each was scheduled, so every
    # arrival runs ahead of the post due at its instant.
    links = [(tick * (8192 - count), 1, count) for count in range(8191, -1, -1)]
    assert fired == sorted(arrivals + links)
    assert len({when for when, _, _ in arrivals} & {when for when, _, _ in links}) > 3000


def test_reschedule_later_reuses_the_handle_and_its_heap_entry():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "loss")
    for _ in range(100):
        sim.run(until=sim.now + 0.01)
        assert sim.reschedule(handle, 1.0, seen.append, "loss") is handle
    # Still one entry, in the timer heap, never keyed later than the handle.
    assert sim._queue == [] and len(sim._timers) == 1
    assert sim._timers[0][2] is handle
    assert sim._timers[0][:2] <= (handle.time, handle.seq)
    assert sim.pending_events == 1
    sim.run(until=1.5)  # a stale entry surfaces and is pushed back, not fired
    assert seen == [] and sim.events_processed == 0
    assert sim._queue == [] and [entry[2] for entry in sim._timers] == [handle]
    sim.run(until=2.5)
    assert seen == ["loss"]
    assert sim.events_processed == 1


def test_reschedule_keeps_its_place_among_same_timestamp_events():
    sim = Simulator()
    seen = []
    handle = sim.schedule(0.5, seen.append, "timer")
    sim.schedule(1.0, seen.append, "before")
    assert sim.reschedule(handle, 1.0, seen.append, "timer") is handle
    sim.schedule(1.0, seen.append, "after")
    sim.run_until_idle()
    assert seen == ["before", "timer", "after"]


def test_reschedule_to_an_earlier_time_falls_back_to_a_new_handle():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    moved = sim.reschedule(handle, 0.25, seen.append, "x")
    assert moved is not handle and handle.cancelled
    assert sim.pending_events == 1
    sim.run_until_idle()
    assert seen == ["x"]
    assert sim.now == pytest.approx(0.25)
    assert sim.events_processed == 1


def test_reschedule_from_inside_the_handles_own_callback_schedules_afresh():
    sim = Simulator()
    seen = []
    box = {}

    def tick():
        seen.append(sim.now)
        if len(seen) < 3:
            again = sim.reschedule(box["handle"], 0.5, tick)
            assert again is not box["handle"]  # the firing handle is spent
            box["handle"] = again

    box["handle"] = sim.schedule(0.5, tick)
    sim.run_until_idle()
    assert seen == [0.5, 1.0, 1.5]
    assert sim.events_processed == 3
    assert sim.pending_events == 0 and _entries(sim) == 0


def test_reschedule_rejects_negative_delay():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.reschedule(handle, -0.1, lambda: None)


def test_compaction_mid_run_keeps_rearmed_timers():
    sim = Simulator()
    seen = []
    timers = [sim.schedule(1.0, seen.append, i) for i in range(8)]
    doomed = [sim.schedule(3.0, seen.append, "doomed") for _ in range(2 * _COMPACT_MIN)]

    def rearm_then_cancel_most_of_the_heap():
        for i, handle in enumerate(timers):
            assert sim.reschedule(handle, 2.0, seen.append, i) is handle
        before = len(sim._timers)
        for handle in doomed:
            handle.cancel()
        assert len(sim._timers) < before  # compacted under the running loop
        kept = [entry[2] for entry in sim._timers]
        assert all(any(entry is handle for entry in kept) for handle in timers)

    sim.schedule(0.5, rearm_then_cancel_most_of_the_heap)
    sim.run(until=2.0)
    assert seen == [] and sim.pending_events == len(timers)
    sim.run(until=10.0)
    assert seen == list(range(8))
    assert sim.pending_events == 0 and _entries(sim) == 0

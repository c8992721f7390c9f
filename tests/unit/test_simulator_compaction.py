"""Heap-compaction tests for the hot-path engine.

Compaction rewrites both event heaps *in place* (``heap[:] = ...``)
because :meth:`Simulator.run` and :meth:`Simulator.step` hold local
references to the two lists across callbacks.  These tests pin both the
cancellation bookkeeping and that aliasing contract.
"""

from repro.net.simulator import _COMPACT_MIN, Simulator


def _entries(sim):
    """Entries in both heaps, cancelled ones included."""
    return len(sim._queue) + len(sim._timers)


def test_mass_cancel_compacts_heap():
    sim = Simulator()
    seen = []
    live = [sim.schedule(2.0, seen.append, i) for i in range(10)]
    doomed = [sim.schedule(1.0, lambda: None) for _ in range(110)]
    for handle in doomed:
        handle.cancel()
    # 120 entries; compaction fires once cancelled entries exceed half
    # the heap, so the queue must have shrunk below the total scheduled.
    assert _entries(sim) < len(live) + len(doomed)
    assert sim.pending_events == len(live)
    sim.run_until_idle()
    assert seen == list(range(10))
    assert sim.pending_events == 0
    assert _entries(sim) == 0


def test_compaction_preserves_dispatch_order():
    sim = Simulator()
    seen = []
    sim.post(0.5, seen.append, "post")
    for i in range(5):
        sim.schedule(0.4 + i * 0.001, seen.append, i)
    doomed = [sim.schedule(1.0, lambda: None) for _ in range(130)]
    for handle in doomed:
        handle.cancel()
    sim.run_until_idle()
    assert seen == [0, 1, 2, 3, 4, "post"]


def test_small_heaps_stay_lazy():
    sim = Simulator()
    count = _COMPACT_MIN // 2
    doomed = [sim.schedule(1.0, lambda: None) for _ in range(count)]
    for handle in doomed:
        handle.cancel()
    # Below the compaction threshold, cancellation stays lazy: the
    # entries remain in the timer heap and are skipped at pop time.
    assert sim._queue == [] and len(sim._timers) == count
    assert sim.pending_events == 0
    sim.run_until_idle()
    assert _entries(sim) == 0


def test_compaction_inside_callback_does_not_duplicate_dispatch():
    """cancel() from inside a running callback can trigger compaction
    while run() is iterating its local reference to the queue.  If
    _compact() rebound self._queue instead of mutating in place, the
    dispatch loop would drain a stale list and leave every surviving
    event queued for a second dispatch.
    """
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(1.0, lambda: None) for _ in range(200)]

    def cancel_everything():
        for handle in doomed:
            handle.cancel()

    sim.schedule(0.1, cancel_everything)
    for i in range(10):
        sim.schedule(0.2 + i * 0.01, fired.append, i)
    sim.run(until=5.0)
    assert fired == list(range(10))
    assert sim.pending_events == 0
    before = list(fired)
    sim.run_until_idle()
    assert fired == before


def test_cancel_is_idempotent_for_bookkeeping():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    handle.cancel()
    assert _entries(sim) == 1
    assert sim.pending_events == 0

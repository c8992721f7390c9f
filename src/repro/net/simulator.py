"""Deterministic discrete-event simulation engine.

A minimal, fast event loop over two binary heaps of ``(time, sequence,
callback, args)`` entries.  The monotonically increasing sequence number,
drawn from one counter for both heaps, makes execution order
deterministic when events share a timestamp, which the test-suite relies
on for exact-trace assertions.

Hot-path design notes (the simulator dominates benchmark wall time):

* Heap entries are plain tuples, so ``heapq`` compares them with C-level
  tuple comparison instead of calling a Python ``__lt__`` per comparison.
  ``(time, seq)`` is unique, so later tuple elements are never compared.
* The heaps split by entry kind.  ``_queue`` holds the fire-and-forget
  entries: :meth:`Simulator.post`, used by the network models (NIC,
  switch, CPU), and the pushes ``net/link.py``, ``net/host.py`` and
  ``net/fabric.py`` inline.  ``_timers`` holds the cancellable
  :class:`EventHandle` entries of :meth:`schedule` that are due strictly
  later than ``now``: protocol timers, workload arrivals, fault events.
  A workload that pre-schedules thousands of arrivals therefore leaves
  ``_queue`` as short as the frames and CPU tasks in flight, and each of
  their pushes and pops sifts through that, not through the arrivals.
* :meth:`run` inlines the pop/dispatch loop with all lookups bound to
  locals and dispatches same-timestamp batches without re-entering
  :meth:`step`.
* Cancellation stays lazy, but the heaps are compacted whenever
  cancelled entries exceed half of their entries (see :meth:`_compact`),
  so timer-heavy workloads cannot grow them without bound.
* Re-arming is lazy too: :meth:`Simulator.reschedule` of a live handle to
  a later time writes the new ``(time, seq)`` on the handle and leaves
  its heap entry where it is; the dispatch loops push a surfacing entry
  whose ``seq`` no longer matches back at the handle's current key.  A
  token-loss timer re-armed on every token visit costs no allocation
  and no heap operation per visit.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

#: Sentinel marking a heap entry whose third element is an EventHandle
#: (cancellable) rather than a bare callback.
_HANDLE = object()

#: Compaction is considered once the queue holds this many entries.
_COMPACT_MIN = 64


class EventHandle:
    """Handle for a scheduled event; supports cancellation.

    Cancellation is lazy: the heap entry stays in place and is skipped
    when popped.  This keeps :meth:`Simulator.schedule` and cancel both
    O(log n) amortized; the owning simulator compacts its heaps when
    more than half of their entries are cancelled.

    ``(time, seq)`` is when the event is due; after a
    :meth:`Simulator.reschedule` the heap entry may still carry an
    earlier key.  ``_sim`` is the simulator whose heaps hold an entry for
    this handle, ``None`` once it has fired: a fired handle is inert.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled timers don't pin protocol state alive.
        self.callback = _noop
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """A discrete-event simulator clock and event queue."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Fire-and-forget entries, and handle entries whose instant has come.
        self._queue: List[tuple] = []
        #: Handle entries due strictly later than ``now`` when pushed.
        self._timers: List[tuple] = []
        self._seq = 0
        self._events_processed = 0
        self._cancelled_pending = 0

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue) + len(self._timers) - self._cancelled_pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns a cancellable :class:`EventHandle`.  Callers that never
        cancel should prefer :meth:`post`, which is cheaper.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulation time.

        A handle due later than ``now`` waits on ``_timers``; one due now
        joins the running instant on ``_queue``.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule event at {time} < now {self.now}")
        self._seq = seq = self._seq + 1
        event = EventHandle(time, seq, callback, args, self)
        heapq.heappush(
            self._timers if time > self.now else self._queue, (time, seq, event, _HANDLE)
        )
        return event

    def reschedule(
        self, handle: EventHandle, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """``handle.cancel()`` then ``schedule(delay, callback, *args)``,
        returning the armed handle — observably identical (fire time,
        place among same-timestamp events, ``events_processed``,
        ``pending_events``), but moving a live event *later* reuses the
        handle and its heap entry.

        Like ``schedule`` it consumes one sequence number at the call, so
        the event sorts among same-timestamp events exactly where a fresh
        one would.  Moving an event earlier than it is due, or re-arming
        a cancelled or fired handle, is literally cancel + schedule and
        returns a new handle.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        time = self.now + delay
        if handle._sim is not self or handle.cancelled or time < handle.time:
            handle.cancel()
            return self.schedule_at(time, callback, *args)
        # The heap entry's key is never later than the handle's, so it
        # surfaces in time to be pushed back at the new one.
        self._seq = handle.seq = self._seq + 1
        handle.time = time
        handle.callback = callback
        handle.args = args
        return handle

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget fast path: like :meth:`schedule` but without
        allocating a cancellable handle.  Used by the per-frame network
        hot paths (NIC serialization, switch forwarding, CPU tasks)."""
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, callback, args))

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        """A handle in a heap was cancelled; compact when the heaps are
        mostly dead weight (> 50% cancelled entries)."""
        self._cancelled_pending += 1
        size = len(self._queue) + len(self._timers)
        if size >= _COMPACT_MIN and self._cancelled_pending * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify both heaps.

        ``(time, seq)`` totally orders live entries, so compaction never
        changes dispatch order — it only frees memory and shrinks every
        subsequent push/pop.

        The lists are mutated *in place*: :meth:`run` and :meth:`step`
        hold local references to both across callbacks, and compaction
        can be triggered from inside a callback (any timer ``cancel()``).
        Rebinding ``self._queue`` or ``self._timers`` here would leave the
        dispatch loop draining a stale copy and re-dispatch every live
        entry.
        """
        for heap in (self._queue, self._timers):
            heap[:] = [
                entry for entry in heap if entry[3] is not _HANDLE or not entry[2].cancelled
            ]
            heapq.heapify(heap)
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event.  Returns False when none is pending."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until both heaps empty, ``until`` is reached, or
        ``max_events`` have been processed.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the heaps empty earlier, so rate meters see a full window.

        Events run in ``(time, seq)`` order across both heaps, exactly as
        they would from one heap holding every entry:

        * a timer strictly earlier than ``_queue``'s head is the earliest
          entry of all, so it runs straight from ``_timers``;
        * otherwise the next instant is ``_queue``'s head, and the timers
          due at it move into ``_queue``, where their ``seq`` places them
          among its entries;
        * while that instant runs, every timer armed is due after it
          (:meth:`schedule_at` of the current instant pushes onto
          ``_queue``, and so does a re-armed entry that surfaces at it),
          so the same-instant loop reads ``_queue`` alone.

        The ``max_events`` / ``step`` path compares the two heads per
        event instead.  Both paths treat a popped handle entry the same
        way: cancelled — drop it; re-armed since it was pushed (``seq``
        mismatch) — push it back at the handle's current key, which is
        not an event; live — detach the handle (so a late ``cancel()`` is
        inert) and fire.
        """
        queue = self._queue
        timers = self._timers
        pop = heapq.heappop
        push = heapq.heappush
        handle_tag = _HANDLE
        events_processed = self._events_processed
        try:
            if max_events is None and until is not None:
                # Benchmark fast path: no per-event max_events check, the
                # clock is written once per same-timestamp batch, and each
                # batch runs without re-checking `until` (equal-time events
                # cannot exceed it once the first one passed).
                while True:
                    if timers:
                        time = timers[0][0]
                        if not queue or time < queue[0][0]:
                            if time > until:
                                self.now = until
                                return
                            _t, seq, handle, _tag = pop(timers)
                            if handle.cancelled:
                                self._cancelled_pending -= 1
                                continue
                            if handle.seq != seq:
                                push(timers, (handle.time, handle.seq, handle, handle_tag))
                                continue
                            self.now = time
                            handle._sim = None
                            events_processed += 1
                            handle.callback(*handle.args)
                            continue
                    elif not queue:
                        break
                    time = queue[0][0]
                    if time > until:
                        self.now = until
                        return
                    while timers and timers[0][0] == time:
                        push(queue, pop(timers))
                    self.now = time
                    while queue and queue[0][0] == time:
                        _t, seq, callback, args = pop(queue)
                        if args is handle_tag:
                            handle = callback
                            if handle.cancelled:
                                self._cancelled_pending -= 1
                                continue
                            if handle.seq != seq:
                                due = handle.time
                                push(
                                    queue if due == time else timers,
                                    (due, handle.seq, handle, handle_tag),
                                )
                                continue
                            handle._sim = None
                            callback = handle.callback
                            args = handle.args
                        events_processed += 1
                        callback(*args)
                # Heaps drained before `until`: advance the clock so rate
                # meters still see the full window.
                if self.now < until:
                    self.now = until
                return
            processed = 0
            while queue or timers:
                if max_events is not None and processed >= max_events:
                    return
                heap = timers if timers and (not queue or timers[0] < queue[0]) else queue
                time = heap[0][0]
                if until is not None and time > until:
                    self.now = until
                    return
                _t, seq, callback, args = pop(heap)
                if args is handle_tag:
                    handle = callback
                    if handle.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    if handle.seq != seq:
                        due = handle.time
                        push(
                            queue if due == time else timers,
                            (due, handle.seq, handle, handle_tag),
                        )
                        continue
                    handle._sim = None
                    callback = handle.callback
                    args = handle.args
                self.now = time
                events_processed += 1
                processed += 1
                callback(*args)
        finally:
            self._events_processed = events_processed
        if until is not None and self.now < until:
            self.now = until

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        """Run until no events remain (with a runaway backstop)."""
        self.run(max_events=max_events)
        if self.pending_events:
            raise RuntimeError(f"simulation did not go idle within {max_events} events")

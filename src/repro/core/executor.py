"""The one interpreter for protocol effects.

The engines (:mod:`repro.core.participant`, the membership controller)
are sans-io: they return ordered lists of :mod:`repro.core.events`
effects.  :class:`EffectExecutor` is the only code that interprets those
lists, on every substrate — the simulator's bare-ring host, its
membership host, the asyncio runtime node and the instant test network.
It owns, once, what is the same everywhere:

* type → handler dispatch (an effect nobody registered is a
  ``TypeError``);
* run grouping for ``messages_per_datagram``: consecutive *new*
  multicasts coalesce through the shared
  :class:`~repro.core.transport_core.CoalescingAccumulator`, a run is
  flushed before any effect of another kind (the token must not overtake
  pre-token sends) and at the end of the list, and retransmissions
  always travel alone;
* the named-timer table: re-arming a live name is the backend's
  ``reschedule`` (one timer per name, the old deadline never fires).
  Both substrates move a live timer to a later deadline in place: the
  simulator rewrites the event's key
  (:meth:`~repro.net.simulator.Simulator.reschedule`), the runtime
  node its :class:`~repro.runtime.node.LoopTimer`'s deadline, so the
  token-loss timer every token visit re-arms costs no new timer;
* delivery: a :class:`~repro.core.events.Deliver` is a run, and reaches
  the backend as one ``deliver`` call, from one site.

What differs per substrate is the *backend* — how a run, a token or a
control message gets on the wire, how a callback is scheduled, what a
delivery does — plus the substrate's own receive loop.  Nothing else is
per-substrate code.

The backend protocol (duck-typed; bound once, at construction)::

    send_data_run(messages, retransmission)   # one run: one datagram, unless
                                              # the backend cuts it by bytes
                                              # (transport_core.split_run)
    send_token(token, destination)
    deliver(messages, config_id, origin_ring) # ids None below membership

and, for backends that host a membership controller::

    send_control(message, destination)        # None = multicast
    schedule(delay, callback, *args) -> handle with .cancel()
    reschedule(handle, delay, callback, *args) -> handle
                                              # == handle.cancel() + schedule(...);
                                              # a live timer moved later comes
                                              # back as the same handle
    on_timer(name)                            # a timer armed here fired
    deliver_config(configuration)

A bare-ring backend omits the second group; membership effects are then
unknown to its executor, like any other unregistered effect.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

from repro.core.events import (
    CancelTimer,
    Deliver,
    DeliverConfiguration,
    Effect,
    MulticastData,
    SendControl,
    SendToken,
    SetTimer,
    Stable,
)
from repro.core.transport_core import CoalescingAccumulator


class EffectExecutor:
    """Executes effect lists against one backend (see module docstring)."""

    __slots__ = (
        "_coalescer", "_send_run", "_send_token", "_deliver", "_handlers", "_timers"
    )

    def __init__(self, backend: object, messages_per_datagram: int = 1) -> None:
        #: Drained before :meth:`execute` returns, so it never holds
        #: messages across effect lists.
        self._coalescer = CoalescingAccumulator(messages_per_datagram)
        self._send_run = backend.send_data_run
        self._send_token = backend.send_token
        self._deliver = backend.deliver
        self._timers: Dict[str, object] = {}
        # Deliver (the hottest effect), MulticastData (whose handling
        # needs the accumulator) and SendToken (one per visit) are tested
        # for directly in execute().
        handlers: Dict[type, Callable[[Effect], None]] = {
            # Purely informational (garbage-collection notice).
            Stable: lambda e: None,
        }
        if hasattr(backend, "send_control"):
            send_control = backend.send_control
            deliver_config = backend.deliver_config
            schedule = backend.schedule
            reschedule = backend.reschedule
            on_timer = backend.on_timer
            timers = self._timers

            def expire(name: str) -> None:
                timers.pop(name, None)
                on_timer(name)

            def set_timer(effect: SetTimer) -> None:
                name = effect.name
                handle = timers.get(name)
                if handle is None:
                    timers[name] = schedule(effect.delay, expire, name)
                else:
                    timers[name] = reschedule(handle, effect.delay, expire, name)

            handlers.update(
                {
                    SendControl: lambda e: send_control(e.message, e.destination),
                    SetTimer: set_timer,
                    CancelTimer: lambda e: self.cancel_timer(e.name),
                    DeliverConfiguration: lambda e: deliver_config(e.configuration),
                }
            )
        self._handlers = handlers

    def execute(self, effects: Iterable[Effect]) -> None:
        """Run ``effects`` in order against the backend."""
        acc = self._coalescer
        deliver = self._deliver
        for effect in effects:
            kind = effect.__class__
            # Deliver dominates at one message per datagram (every
            # received message releases a run), so it is tested first.
            if kind is Deliver:
                if acc.group is not None:
                    self._send_run(acc.take(), False)
                deliver(effect.messages, effect.config_id, effect.origin_ring)
            elif kind is MulticastData:
                if acc.mpd > 1 and not effect.retransmission:
                    # Retransmissions precede new sends in effect order,
                    # so accumulating only new messages keeps the wire
                    # order of this effect list intact.
                    full = acc.push(effect.message)
                    if full is not None:
                        self._send_run(full, False)
                    continue
                if acc.group is not None:
                    self._send_run(acc.take(), False)
                self._send_run((effect.message,), effect.retransmission)
            elif kind is SendToken:
                # The token must not overtake pre-token sends.
                if acc.group is not None:
                    self._send_run(acc.take(), False)
                self._send_token(effect.token, effect.destination)
            else:
                # A run of coalescible multicasts ends at the first
                # effect of any other kind.
                if acc.group is not None:
                    self._send_run(acc.take(), False)
                handler = self._handlers.get(kind)
                if handler is None:
                    raise TypeError(f"unknown effect {effect!r}")
                handler(effect)
        if acc.group is not None:
            self._send_run(acc.take(), False)

    # -- timers --------------------------------------------------------

    @property
    def armed_timers(self) -> Tuple[str, ...]:
        """Names of the timers currently armed."""
        return tuple(self._timers)

    def cancel_timer(self, name: str) -> None:
        handle = self._timers.pop(name, None)
        if handle is not None:
            handle.cancel()

    def cancel_timers(self) -> None:
        """Cancel every armed timer (the host crashed or shut down)."""
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()

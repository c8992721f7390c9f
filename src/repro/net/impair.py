"""Seeded network impairment models: reordering, jitter, duplication.

The loss models in :mod:`repro.net.loss` cover the paper's own adverse
condition (receiver-side data loss, §IV-A4); real data-center fabrics
also *reorder* packets (multi-path fabrics, ECMP rehashes), add
per-packet latency noise, and occasionally duplicate frames.  An
:class:`ImpairmentModel` wraps a host's delivery callable at topology
build time — the default path never pays for the hook — and perturbs
*data* frames only, mirroring the loss-model scope: token and membership
control traffic ride the token port and stay pristine, so the normal-case
token circulation is never impaired directly.

Determinism contract (same as ``loss.py``): every model draws only from
its own :class:`random.Random` — pass ``rng=`` to share one seeded
stream across models and fault injection, or ``seed=`` for a private
stream.  Global ``random`` is never touched, so impaired runs stay
byte-identical per seed (the conftest tripwire enforces this in tests).

One shared model instance may impair several hosts: per-receiver state
(held frames, and the rng *draw order*) lives in the closure created by
:meth:`ImpairmentModel.wrap`, while the rng stream itself is shared, so
the whole cluster's impairment schedule derives from one seed.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.net.packet import Frame, PortKind
from repro.net.simulator import Simulator

_DATA = PortKind.DATA

Deliver = Callable[[Frame], None]


class ImpairmentModel:
    """Base class: wraps a receiver's delivery callable.

    The base implementation is the identity — subclasses return a
    closure that perturbs data frames before handing them to
    ``deliver``.  ``wrap`` is called once per host at topology build
    time; the returned callable sits where the switch output port's
    ``deliver`` target used to be, *before* the host's receive-side
    loss model and fault interceptors (an impairment happens in the
    fabric, a loss model at the receiver's NIC).
    """

    def wrap(self, receiver_id: int, deliver: Deliver, sim: Simulator) -> Deliver:
        return deliver


class JitterModel(ImpairmentModel):
    """Seeded per-frame latency noise on data frames.

    Each data frame is delayed by an extra ``uniform(0, max_jitter)``
    seconds.  Because delays are independent, jitter may reorder data
    frames relative to each other (and relative to undelayed token
    frames) — that is the point: it models variable queueing on
    alternative fabric paths.
    """

    def __init__(
        self,
        max_jitter: float,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if max_jitter <= 0:
            raise ValueError(f"max_jitter must be positive, got {max_jitter}")
        self.max_jitter = max_jitter
        self._rng = rng if rng is not None else random.Random(seed)
        self.frames_delayed = 0

    def wrap(self, receiver_id: int, deliver: Deliver, sim: Simulator) -> Deliver:
        rng = self._rng
        max_jitter = self.max_jitter

        def jittered(frame: Frame) -> None:
            if frame.kind is not _DATA:
                deliver(frame)
                return
            self.frames_delayed += 1
            sim.post(rng.random() * max_jitter, deliver, frame)

        return jittered


class ReorderModel(ImpairmentModel):
    """Delay a frame past its successors, with a bounded displacement.

    With probability ``rate`` an arriving data frame is *held*; it is
    released only after ``d`` further data frames (``d`` drawn uniformly
    from ``1..max_displacement``) have arrived and been delivered — the
    held frame lands at most ``max_displacement`` positions late in the
    receiver's data stream.  If traffic dries up before enough
    successors arrive (end of a burst, protocol stalled on the gap the
    hold created), a timeout flush delivers the frame anyway so a held
    frame can never be stranded forever.
    """

    def __init__(
        self,
        rate: float,
        max_displacement: int = 3,
        hold_timeout: float = 0.002,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        if max_displacement < 1:
            raise ValueError(f"max_displacement must be >= 1, got {max_displacement}")
        if hold_timeout <= 0:
            raise ValueError(f"hold_timeout must be positive, got {hold_timeout}")
        self.rate = rate
        self.max_displacement = max_displacement
        self.hold_timeout = hold_timeout
        self._rng = rng if rng is not None else random.Random(seed)
        self.frames_held = 0
        self.frames_flushed = 0

    def wrap(self, receiver_id: int, deliver: Deliver, sim: Simulator) -> Deliver:
        rng = self._rng
        rate = self.rate
        max_displacement = self.max_displacement
        hold_timeout = self.hold_timeout
        # Held entries: [remaining_successors, frame, released].  The list
        # is per-receiver (closure state); the rng stream is shared.
        held: List[list] = []

        def flush(entry: list) -> None:
            if entry[2]:
                return
            entry[2] = True
            held.remove(entry)
            self.frames_flushed += 1
            deliver(entry[1])

        def reordered(frame: Frame) -> None:
            if frame.kind is not _DATA:
                deliver(frame)
                return
            release = None
            if held:
                release = [entry for entry in held if entry[0] <= 1]
                for entry in held:
                    entry[0] -= 1
                for entry in release:
                    entry[2] = True
                    held.remove(entry)
            if rng.random() < rate:
                entry = [1 + rng.randrange(max_displacement), frame, False]
                held.append(entry)
                self.frames_held += 1
                sim.post(hold_timeout, flush, entry)
            else:
                deliver(frame)
            if release:
                # Released frames land *after* the frame that displaced
                # them — that is the reordering.
                for entry in release:
                    deliver(entry[1])

        return reordered


class DuplicateModel(ImpairmentModel):
    """Deliver an extra copy of a data frame with probability ``rate``.

    The copy is the same immutable frame object, delivered again
    back-to-back with the original — the common switch-retransmit shape.
    """

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self.rate = rate
        self._rng = rng if rng is not None else random.Random(seed)
        self.frames_duplicated = 0

    def wrap(self, receiver_id: int, deliver: Deliver, sim: Simulator) -> Deliver:
        rng = self._rng
        rate = self.rate

        def duplicated(frame: Frame) -> None:
            if frame.kind is not _DATA:
                deliver(frame)
                return
            if rng.random() >= rate:
                deliver(frame)
                return
            self.frames_duplicated += 1
            deliver(frame)
            deliver(frame)

        return duplicated


def impairment_from_name(
    name: str,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> ImpairmentModel:
    """The shared CLI/soak/conformance impairment presets by name."""
    if name == "reorder":
        return ReorderModel(rate=0.05, max_displacement=3, seed=seed, rng=rng)
    if name == "jitter":
        return JitterModel(max_jitter=20e-6, seed=seed, rng=rng)
    if name == "duplicate":
        return DuplicateModel(rate=0.05, seed=seed, rng=rng)
    raise ValueError(
        f"unknown impairment {name!r} (expected reorder, jitter, or duplicate)"
    )


IMPAIRMENT_NAMES = ("reorder", "jitter", "duplicate")

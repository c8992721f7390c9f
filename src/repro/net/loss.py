"""Receiver-side loss models.

The paper's loss experiments (§IV-A4) instrument each daemon to randomly
drop a percentage of the data messages it receives, independently per
receiver.  Fig. 13 uses a positional variant: each daemon drops 20% of the
messages sent by the daemon a fixed number of ring positions before it.

Randomness discipline: no model ever touches the module-level ``random``
state.  Each stochastic model draws from its own ``random.Random(seed)``,
or — when an ``rng`` instance is passed — from a caller-owned generator,
which is how the fault injector makes mixed loss+fault runs reproducible
from one seed (``repro.faults``).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from repro.net.packet import Frame


class LossModel:
    """Decides whether a receiving host drops an arriving data frame."""

    def should_drop(self, receiver_id: int, frame: Frame) -> bool:
        raise NotImplementedError


class NoLoss(LossModel):
    """The default: a stable data-center LAN with no induced loss."""

    def should_drop(self, receiver_id: int, frame: Frame) -> bool:
        return False


class UniformLoss(LossModel):
    """Drop each received data frame i.i.d. with probability ``rate``.

    Loss decisions are independent per receiver (each daemon drops its own
    share), so the system-wide retransmission rate is a multiple of the
    per-daemon rate — the effect the paper highlights.
    """

    def __init__(
        self, rate: float, seed: int = 0, rng: Optional[random.Random] = None
    ) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng if rng is not None else random.Random(seed)

    def should_drop(self, receiver_id: int, frame: Frame) -> bool:
        if self.rate == 0.0:
            return False
        return self._rng.random() < self.rate


class PositionalLoss(LossModel):
    """Fig. 13's loss pattern.

    Each receiver drops ``rate`` of the frames whose *source* is the host
    ``distance`` positions before it in the ring order.  All other frames
    are received normally.
    """

    def __init__(
        self,
        ring_order: Sequence[int],
        distance: int,
        rate: float = 0.2,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 1 <= distance < len(ring_order):
            raise ValueError(f"distance must be in [1, {len(ring_order) - 1}], got {distance}")
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng if rng is not None else random.Random(seed)
        # receiver -> the single source it loses from
        self._lossy_source: Dict[int, int] = {}
        n = len(ring_order)
        for index, receiver in enumerate(ring_order):
            self._lossy_source[receiver] = ring_order[(index - distance) % n]

    def should_drop(self, receiver_id: int, frame: Frame) -> bool:
        if self._lossy_source.get(receiver_id) != frame.src:
            return False
        return self._rng.random() < self.rate


class BurstLoss(LossModel):
    """Correlated loss: once a drop starts, it continues for a burst.

    A two-state Gilbert model: in the good state each frame is dropped with
    probability ``enter_rate`` (and a drop moves to the bad state); in the
    bad state frames are dropped until the burst ends, with expected burst
    length ``burst_length``.
    """

    def __init__(
        self,
        enter_rate: float,
        burst_length: float = 4.0,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= enter_rate < 1.0:
            raise ValueError(f"enter_rate must be in [0, 1), got {enter_rate}")
        if burst_length < 1.0:
            raise ValueError(f"burst_length must be >= 1, got {burst_length}")
        self.enter_rate = enter_rate
        self.exit_probability = 1.0 / burst_length
        self._rng = rng if rng is not None else random.Random(seed)
        self._in_burst: Dict[int, bool] = {}

    def should_drop(self, receiver_id: int, frame: Frame) -> bool:
        if self._in_burst.get(receiver_id, False):
            if self._rng.random() < self.exit_probability:
                self._in_burst[receiver_id] = False
            return True
        if self.enter_rate and self._rng.random() < self.enter_rate:
            self._in_burst[receiver_id] = True
            return True
        return False


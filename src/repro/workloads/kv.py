"""KV workload models: skewed key popularity and bursty arrivals.

Two generators that compose into the KV bench and chaos suites:

* :class:`ZipfianKeys` — seeded Zipf(s) key popularity over a keyspace
  of ``num_keys``.  Real KV traffic is heavily skewed (the classic
  YCSB/Memcached observation); Zipf with ``s≈0.99`` is the standard
  model.  The sampler precomputes the CDF once and draws by binary
  search, so multi-million-key spaces cost O(n) setup and O(log n) per
  draw.
* :class:`DiurnalArrivals` — a deterministic arrival-time generator
  whose rate swings sinusoidally between a trough and a peak (the
  diurnal load curve), with optional bursts superimposed at the peaks.
  Sampling is by thinning a homogeneous Poisson process at the peak
  rate, which is exact for inhomogeneous Poisson arrivals.

Both are pure (no simulator dependency): they produce keys and
timestamps; :class:`KvOpMix` turns them into a concrete schedule of
client operations that ``repro kv run`` and the chaos scenarios feed
to :class:`~repro.apps.kv.cluster.KvClient` handles.  Everything is
seeded — the same spec yields the identical schedule, which is what
keeps KV chaos reports byte-identical per seed.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


class ZipfianKeys:
    """Seeded Zipf-distributed keys ``k0 .. k{num_keys-1}``.

    ``P(rank i) ∝ 1 / i**s`` for ``i = 1..num_keys``.  ``s=0`` is
    uniform; ``s≈1`` is the classic heavy skew where a handful of keys
    absorb most traffic.
    """

    def __init__(self, num_keys: int, s: float = 0.99, seed: int = 1) -> None:
        if num_keys < 1:
            raise ValueError(f"num_keys must be >= 1, got {num_keys}")
        if s < 0:
            raise ValueError(f"Zipf exponent must be >= 0, got {s}")
        self.num_keys = num_keys
        self.s = s
        self.seed = seed
        self._rng = random.Random(seed)
        # CDF over ranks; a single cumulative pass keeps setup O(n)
        # even for multi-million-key spaces.
        total = 0.0
        cdf: List[float] = []
        for rank in range(1, num_keys + 1):
            total += 1.0 / rank ** s
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def draw(self) -> str:
        rank = bisect_left(self._cdf, self._rng.random() * self._total)
        return f"k{rank}"

    def draws(self, count: int) -> List[str]:
        return [self.draw() for _ in range(count)]

    def hottest(self, count: int) -> List[str]:
        """The ``count`` most popular keys (ranks are popularity order)."""
        return [f"k{rank}" for rank in range(min(count, self.num_keys))]


class DiurnalArrivals:
    """Deterministic arrival times under a diurnal (sinusoidal) rate.

    The instantaneous rate over ``[0, duration)`` is::

        rate(t) = trough + (peak - trough) * (1 - cos(2π t/period)) / 2

    so a period equal to ``duration`` gives one quiet-busy-quiet day.
    ``burst_factor > 1`` multiplies the rate inside short windows at
    each period's peak — the synchronized-burst pattern (cron jobs,
    market opens) that smooth sinusoids miss.
    """

    def __init__(
        self,
        trough_rate: float,
        peak_rate: float,
        period: float,
        burst_factor: float = 1.0,
        burst_width: float = 0.0,
        seed: int = 1,
    ) -> None:
        if trough_rate < 0 or peak_rate <= 0:
            raise ValueError(
                f"rates must be positive (trough={trough_rate}, peak={peak_rate})"
            )
        if peak_rate < trough_rate:
            raise ValueError(
                f"peak rate {peak_rate} below trough rate {trough_rate}"
            )
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
        self.trough_rate = trough_rate
        self.peak_rate = peak_rate
        self.period = period
        self.burst_factor = burst_factor
        self.burst_width = burst_width
        self.seed = seed

    def rate_at(self, t: float) -> float:
        swing = (self.peak_rate - self.trough_rate) / 2.0
        rate = self.trough_rate + swing * (1.0 - math.cos(2.0 * math.pi * t / self.period))
        if self.burst_factor > 1.0 and self.burst_width > 0.0:
            # Peak of cycle n sits at (n + 1/2) * period.
            phase = (t / self.period) % 1.0
            if abs(phase - 0.5) * self.period <= self.burst_width / 2.0:
                rate *= self.burst_factor
        return rate

    def times(self, duration: float) -> List[float]:
        """Arrival timestamps in ``[0, duration)``, by thinning."""
        rng = random.Random(self.seed)
        ceiling = self.peak_rate * max(self.burst_factor, 1.0)
        out: List[float] = []
        t = 0.0
        while True:
            t += rng.expovariate(ceiling)
            if t >= duration:
                return out
            if rng.random() * ceiling <= self.rate_at(t):
                out.append(t)


@dataclass(frozen=True)
class KvOp:
    """One scheduled client operation (a row of a workload schedule)."""

    at: float
    client_id: int
    kind: str  # "get" | "put" | "delete" | "cas" | "txn"
    keys: Tuple[str, ...]


@dataclass
class KvOpMix:
    """A seeded operation mix over Zipfian keys and given arrival times.

    ``get/put/delete/cas/txn`` weights need not sum to 1 (they are
    normalized).  Transactions touch ``txn_size`` keys drawn from the
    same popularity distribution; the KV cluster requires one partition
    per transaction, so the schedule consumer remaps a transaction's
    extra keys into its first key's partition.
    """

    keys: ZipfianKeys
    num_clients: int = 4
    get_weight: float = 0.70
    put_weight: float = 0.25
    delete_weight: float = 0.02
    cas_weight: float = 0.02
    txn_weight: float = 0.01
    txn_size: int = 3
    seed: int = 1

    _kinds: Sequence[str] = field(default=("get", "put", "delete", "cas", "txn"), repr=False)

    def schedule(self, times: Sequence[float]) -> List[KvOp]:
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        weights = [
            self.get_weight,
            self.put_weight,
            self.delete_weight,
            self.cas_weight,
            self.txn_weight,
        ]
        if min(weights) < 0 or sum(weights) <= 0:
            raise ValueError(f"bad op weights {weights}")
        rng = random.Random(self.seed)
        out: List[KvOp] = []
        for at in times:
            kind = rng.choices(self._kinds, weights=weights)[0]
            count = self.txn_size if kind == "txn" else 1
            out.append(
                KvOp(
                    at=at,
                    client_id=rng.randrange(self.num_clients),
                    kind=kind,
                    keys=tuple(self.keys.draw() for _ in range(count)),
                )
            )
        return out


def drive_schedule(cluster, schedule: Sequence[KvOp], start: float) -> int:
    """Feed a schedule into a :class:`~repro.apps.kv.cluster.KvCluster`.

    Returns the number of operations scheduled.  Values are derived
    from the operation index so re-running a seed reproduces byte-
    identical stores.  Transactions are remapped into their first key's
    partition (suffix keys get a partition-local alias) because
    cross-shard transactions are a non-promise.
    """
    from repro.apps.kv.commands import put as make_put

    for index, op in enumerate(schedule):
        client = cluster.client(op.client_id)
        value = f"v{index}".encode("utf-8")
        when = start + op.at
        if op.kind == "get":
            cluster.sim.schedule_at(when, client.get, op.keys[0])
        elif op.kind == "put":
            cluster.sim.schedule_at(when, client.put, op.keys[0], value)
        elif op.kind == "delete":
            cluster.sim.schedule_at(when, client.delete, op.keys[0])
        elif op.kind == "cas":
            cluster.sim.schedule_at(when, client.cas, op.keys[0], None, value)
        elif op.kind == "txn":
            anchor = op.keys[0]
            group = cluster.group_of(anchor)
            ops = [make_put(anchor, value)]
            probe = 0
            for _extra in op.keys[1:]:
                # Transactions bind to one partition: derive suffix
                # keys in the anchor's group by deterministic probing
                # (expected `partitions` tries per key).
                while cluster.group_of(f"{anchor}~{probe}") != group:
                    probe += 1
                ops.append(make_put(f"{anchor}~{probe}", value))
                probe += 1
            cluster.sim.schedule_at(when, client.transact, tuple(ops))
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
    return len(schedule)

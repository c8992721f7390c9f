"""The method every workload is measured with.

A workload run is a sequence of *slices*: each slice builds a fresh
cluster (or fleet), warms it up, measures, drains and verifies.  Every
slice is bracketed by a stdlib-only calibration kernel, host-time
quantities are scaled to a reference machine by the measured
``machine_factor`` and reported as the median over slices; sim-time
quantities are exact per seed and asserted identical across slices.

This module imports nothing from ``repro``: the instrument stays out of
the measured program.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import math
import os
import pstats
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Calibration-kernel time on the reference machine (the 2-core box the
#: committed baseline was recorded on).  Host-time results are scaled so
#: that a machine running the kernel in this time reports them unchanged.
CALIB_REF_S = 0.100

#: Clock domains of a metric.  ``sim`` values are simulated time: exact
#: per seed, never scaled.  ``host`` values are CPU-bound host time and
#: are scaled by the machine factor.  ``clock`` values are host time set
#: by a wall-clock schedule (an open-loop rate) and are reported raw.
SIM, HOST, CLOCK = "sim", "host", "clock"

#: Layers ``cProfile`` self time is grouped into (see :func:`layer_of`).
LAYERS = (
    "core", "membership", "net", "sim", "runtime", "spread", "multiring",
    "apps.kv", "evs", "obs", "workloads", "faults",
    "stdlib.asyncio", "stdlib.other", "bench",
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Everything the benchmark writes (traces, result files, fleet sockets).
OUT_DIR = os.path.join(_BENCH_DIR, "out")


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------


def calibrate(events: int = 100_000) -> float:
    """Time ~100 ms of heap/dict/closure work shaped like the simulator's
    dispatch loop; returns seconds.  Must run outside any event loop.

    The collector is off while it runs and the heap stays small, so the
    result tracks the machine's speed and not the size of whatever the
    benchmark happens to hold alive.
    """
    table: Dict[int, int] = {}
    heap: List[tuple] = []
    push, pop = heapq.heappush, heapq.heappop

    def callback(index: int) -> None:
        table[index & 1023] = index

    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for index in range(events):
            push(heap, ((index * 7919) & 4095, index, callback, (index,)))
            if len(heap) > 256:
                _when, _seq, fn, args = pop(heap)
                fn(*args)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# ----------------------------------------------------------------------
# Spans and the profiler
# ----------------------------------------------------------------------


def layer_of(filename: str) -> str:
    """Map a profiled function's file to the layer that owns it."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0:
        parts = path[at + len(marker):].split("/")
        if parts[0] == "apps" and len(parts) > 1:
            return "apps." + parts[1]
        layer = parts[0] if len(parts) > 1 else "cli"
        return layer if layer in LAYERS else "stdlib.other"
    if path.startswith(_BENCH_DIR.replace(os.sep, "/")):
        return "bench"
    if "/asyncio/" in path or path.endswith("/selectors.py"):
        return "stdlib.asyncio"
    return "stdlib.other"


class Tracer:
    """Spans around the benchmark's own calls into the system.

    Disabled (the default for end-to-end runs) every method is a no-op.
    Enabled, spans are kept in memory — ``(name, start, end, parent,
    trace id)`` — and :meth:`profiled` turns ``cProfile`` on for the
    measured region so self time can be grouped by layer.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self.trace_id = 0
        self._stack: List[int] = []
        self._profile: Optional[cProfile.Profile] = None

    def new_trace(self) -> None:
        """One trace id per slice."""
        self.trace_id += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def profiled(self) -> Iterator[None]:
        """Profile the enclosed region (nested inside the ``measure`` span)."""
        if not self.enabled:
            yield
            return
        if self._profile is None:
            self._profile = cProfile.Profile()
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()

    def layer_profile(self) -> Dict[str, Dict[str, float]]:
        """Self time (``tottime``) and call counts grouped by layer."""
        layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
        if self._profile is None:
            return layers
        stats = pstats.Stats(self._profile)
        for (filename, _line, _name), (_cc, calls, tottime, _ct, _callers) in stats.stats.items():
            entry = layers[layer_of(filename)]
            entry["self_s"] += tottime
            entry["calls"] += calls
        return layers


# ----------------------------------------------------------------------
# Slices
# ----------------------------------------------------------------------


@dataclass
class Slice:
    """What one slice of a workload measured (raw, before normalisation)."""

    attempted: int
    failed: int
    #: Host seconds from starting to build the system until the measured
    #: region begins (build, boot, ring formation, client join, sim
    #: warm-up); fixed-length wall-clock waits are not counted.
    setup_s: float
    #: Host seconds of the measured region and messages (KV: ops)
    #: delivered at every live receiver / acked inside it.
    measure_s: float
    msgs: int
    #: Clean payload Mbit/s per receiver in the workload's own clock.
    goodput_mbps: float
    #: Submit (due time) -> delivery, seconds in the workload's own clock.
    latencies: List[float]
    #: The workload's own clock, in which latency is measured: SIM or HOST.
    clock: str
    #: Clock of ``msgs / measure_s``: HOST when the rate is what the CPU
    #: sustains, CLOCK when an open-loop schedule sets it.  Goodput is in
    #: sim time on sim workloads and follows the rate otherwise.
    rate_clock: str = HOST
    #: HOST when set-up is CPU work (building and booting a simulation),
    #: CLOCK when it waits on timers (a fleet forming its ring).
    setup_clock: str = HOST
    #: Digest of everything sim-deterministic (order, latencies, counts).
    digest: str = ""
    #: Verifier findings; empty means the slice's output is correct.
    problems: List[str] = field(default_factory=list)
    #: Per-layer counters read from public attributes after the slice:
    #: name -> (value, unit, clock domain).
    counts: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    #: Calibration-kernel times around the slice (set by :func:`run_slices`).
    calib_before: float = CALIB_REF_S
    calib_after: float = CALIB_REF_S

    @property
    def machine_factor(self) -> float:
        return CALIB_REF_S / ((self.calib_before + self.calib_after) / 2.0)


def _scale(value: float, clock: str, factor: float, is_rate: bool) -> float:
    if clock != HOST:
        return value
    return value / factor if is_rate else value * factor


def slice_metrics(piece: Slice) -> Dict[str, Tuple[float, str, str]]:
    """The end-to-end metrics of one slice, normalised: name -> (value, unit, clock)."""
    factor = piece.machine_factor
    goodput_clock = SIM if piece.clock == SIM else piece.rate_clock
    return {
        "msgs_per_s": (
            _scale(piece.msgs / piece.measure_s, piece.rate_clock, factor, True),
            "1/s", piece.rate_clock,
        ),
        "goodput_mbps": (
            _scale(piece.goodput_mbps, goodput_clock, factor, True), "Mbit/s", goodput_clock,
        ),
        "latency_p50_us": (
            _scale(percentile(piece.latencies, 0.50) * 1e6, piece.clock, factor, False),
            "us", piece.clock,
        ),
        "latency_p95_us": (
            _scale(percentile(piece.latencies, 0.95) * 1e6, piece.clock, factor, False),
            "us", piece.clock,
        ),
        "setup_s": (
            _scale(piece.setup_s, piece.setup_clock, factor, False), "s", piece.setup_clock,
        ),
    }


SliceFn = Callable[[int, bool, Tracer], Slice]


def run_slices(
    run_slice: SliceFn,
    seed: int,
    quick: bool,
    tracer: Tracer,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
) -> List[Slice]:
    """Run slices until ``rounds`` are done or the ``seconds`` budget would
    be overrun by one more slice; each is bracketed by the calibration
    kernel (the one after slice *i* is the one before slice *i+1*).  A
    time budget always gets two slices, so there is a spread to report."""
    if rounds is None and seconds is None:
        raise ValueError("give a slice count or a time budget")
    slices: List[Slice] = []
    began = time.perf_counter()
    before = calibrate()
    longest = 0.0
    while True:
        gc.collect()  # the previous slice's garbage is not this slice's cost
        tracer.new_trace()
        slice_began = time.perf_counter()
        piece = run_slice(seed, quick, tracer)
        after = calibrate()
        piece.calib_before, piece.calib_after = before, after
        before = after
        slices.append(piece)
        longest = max(longest, time.perf_counter() - slice_began)
        if rounds is not None:
            if len(slices) >= rounds:
                return slices
        elif len(slices) >= 2 and (
            time.perf_counter() - began + longest > seconds
        ):
            return slices


def summarize(slices: Sequence[Slice]) -> Dict[str, Dict[str, object]]:
    """Median and quartiles over slices for every end-to-end metric.

    Sim-clock metrics must be identical in every slice (same seed, same
    inputs); a difference means hidden global state and is an error.
    """
    if slices[0].clock == SIM and len({piece.digest for piece in slices}) != 1:
        raise RuntimeError("sim digests differ across slices of one seed")
    per_slice = [slice_metrics(piece) for piece in slices]
    summary: Dict[str, Dict[str, object]] = {}
    for name, (_value, unit, clock) in per_slice[0].items():
        values = [metrics[name][0] for metrics in per_slice]
        if clock == SIM and len(set(values)) != 1:
            raise RuntimeError(
                f"{name} is sim-time but differs across slices of one seed: {values}"
            )
        q1, q2, q3 = quartiles(values)
        summary[name] = {
            "value": q2, "unit": unit, "clock": clock,
            "q1": q1, "q3": q3, "slices": len(values),
        }
    for name in ("latency_p50_us", "latency_p95_us"):
        summary[name]["samples"] = len(slices[0].latencies)
    return summary

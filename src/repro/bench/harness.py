"""The bench gate: one report schema, one runner, one comparator.

``python -m repro bench --suite <s>`` runs a named suite of cases, writes
``BENCH_<suite>.json`` and, with ``--check-baseline``, compares it with
the committed ``benchmarks/baselines/BENCH_<suite>.json``.  Every case
is ``run(seed) -> {"deterministic": {...}, "wall": {...}}``:

* the **deterministic** block holds what a seeded run reproduces on any
  machine — simulated event counts, goodput, latency, store and
  delivery-order digests, health counters.  It is asserted equal across
  repeats and compared with the baseline exactly (floats to a relative
  ``1e-6``), in both directions: a drift means the protocol, simulator
  or store *behaviour* changed;
* the **wall** block holds host-time measurements, reported as medians
  over the repeats.  Only ``ops_per_sec`` is gated, and only as a
  tripwire: the run fails below :data:`WALL_FLOOR` of the baseline.

Performance proper — normalised by machine speed, with spread, A/B
against a parent commit — is ``benchmarks/e2e``'s job, not this gate's.

Suites hardcode their measurement windows, and no environment variable
shortens them, so the deterministic metrics in a committed baseline
mean the same thing on every machine and in CI.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.experiments import _build_ring, run_window
from repro.bench.windows import window_for
from repro.core.messages import DeliveryService
from repro.net.params import GIGABIT, TEN_GIGABIT, NetworkParams
from repro.sim.build import ClusterBuilder
from repro.sim.profiles import LIBRARY
from repro.util.units import Mbps
from repro.workloads.generators import ClosedLoopWorkload, FixedRateWorkload

#: A run fails the wall gate when its ``ops_per_sec`` is below this
#: fraction of the baseline's (shared CI runners are much slower than
#: the machine that recorded it; only a > 3.3x slowdown should trip).
WALL_FLOOR = 0.3
#: Repeats per case (wall metrics are medians over them).
DEFAULT_REPEATS = 3
#: The committed baselines are recorded at this seed.
BASELINE_SEED = 0

#: Suites defined next to the subsystem they exercise, imported on first
#: use so ``import repro.bench`` stays free of asyncio and the KV store.
_LAZY_SUITES = {"kv": "repro.apps.kv.bench", "runtime": "repro.runtime.bench"}

Report = Dict[str, Any]


@dataclass(frozen=True)
class BenchCase:
    """One benchmark case; ``run(seed)`` returns its two-block report."""

    name: str
    run: Callable[[int], Report]
    summary: str = ""


# ----------------------------------------------------------------------
# Simulated cases
# ----------------------------------------------------------------------


def _sim_case(
    name: str,
    build: Callable[[int], Tuple[Any, Any]],
    warmup: float,
    measure: float,
) -> BenchCase:
    """A case over a simulated cluster: ``build(seed)`` returns a fresh
    ``(cluster, workload)``, driven through the one benchmark window."""

    def run(seed: int) -> Report:
        cluster, workload = build(seed)
        # Collect the previous repeat's garbage outside the timed loop.
        gc.collect()
        wall = run_window(cluster, workload, warmup, measure)
        events = cluster.sim.events_processed
        stats = cluster.aggregate()
        return {
            "deterministic": {
                "events_processed": events,
                "goodput_mbps": round(stats.goodput_bps / 1e6, 3),
                "latency_us": round(stats.mean_latency * 1e6, 3),
            },
            "wall": {
                "wall_time_s": round(wall, 4),
                "ops_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            },
        }

    return BenchCase(name=name, run=run)


def _ring_case(
    name: str,
    params: NetworkParams,
    warmup: float,
    measure: float,
    rate_mbps: Optional[float] = None,
    service: DeliveryService = DeliveryService.AGREED,
    messages_per_datagram: int = 1,
    racks: int = 0,
    impair_name: str = "",
) -> BenchCase:
    """The paper's library methodology on the 8-host accelerated ring:
    closed-loop senders (maximum throughput), or a fixed aggregate rate
    when ``rate_mbps`` is given.  ``racks`` puts it on a 2:1
    oversubscribed leaf–spine fabric, ``impair_name`` layers a named
    impairment on top — built fresh per run, since the repeats are
    asserted deterministic and a reused RNG would break that."""

    def build(seed: int) -> Tuple[Any, Any]:
        cluster = _build_ring(
            True,
            LIBRARY,
            params,
            messages_per_datagram=messages_per_datagram,
            fabric_racks=racks,
            impair=impair_name,
            seed=seed,
        )
        if rate_mbps is None:
            return cluster, ClosedLoopWorkload(payload_size=1350, service=service)
        return cluster, FixedRateWorkload(
            payload_size=1350, aggregate_rate_bps=Mbps(rate_mbps), service=service
        )

    return _sim_case(name, build, warmup, measure)


def _multiring_case(num_rings: int) -> BenchCase:
    """N independent 4-host rings sharing one simulator, every sender saturated.

    The scaling proof: with closed-loop senders each ring runs at its
    maximum sustainable rate, so N rings should process close to N× the
    simulated ordering work (``events_processed``, aggregate
    ``goodput_mbps``) of one ring in the same simulated window — whereas
    wall-clock cannot scale on a single interpreter.
    """

    def build(seed: int) -> Tuple[Any, Any]:
        cluster = (
            ClusterBuilder()
            .rings(num_rings)
            .hosts(4)
            .protocol()
            .profile(LIBRARY)
            .network(GIGABIT)
            .config(window_for(LIBRARY, GIGABIT, True, 1350))
            .build_multiring()
        )
        return cluster, ClosedLoopWorkload(payload_size=1350)

    return _sim_case(f"rings-{num_rings}", build, warmup=0.01, measure=0.02)


SUITES: Dict[str, List[BenchCase]] = {
    # Fast enough for a CI gate (~seconds): short windows, two regimes.
    "smoke": [
        _ring_case("agreed-1g-200", GIGABIT, 0.01, 0.02, rate_mbps=200.0),
        _ring_case("closed-loop-10g", TEN_GIGABIT, 0.005, 0.01),
    ],
    # The full-size engine cases: the paper's library methodology at
    # maximum sustainable throughput.
    "headline": [
        _ring_case("max-throughput-10g", TEN_GIGABIT, 0.04, 0.08),
        _ring_case("agreed-1g-500", GIGABIT, 0.04, 0.08, rate_mbps=500.0),
        _ring_case("safe-10g", TEN_GIGABIT, 0.04, 0.08, service=DeliveryService.SAFE),
        # The datagram-coalescing sweep (PROTOCOL.md §9.1):
        # max-throughput-10g is the messages_per_datagram=1 anchor of
        # this curve; each step up collapses a run of per-message send
        # and receive CPU tasks into one, so the pinned expectation is
        # goodput rising monotonically along it.
        _ring_case("batch-10g-mpd2", TEN_GIGABIT, 0.04, 0.08, messages_per_datagram=2),
        _ring_case("batch-10g-mpd4", TEN_GIGABIT, 0.04, 0.08, messages_per_datagram=4),
        _ring_case("batch-10g-mpd8", TEN_GIGABIT, 0.04, 0.08, messages_per_datagram=8),
    ],
    # Fabric topologies: the identical closed loop on a single switch, a
    # 2:1-oversubscribed two-rack leaf–spine, and the fabric with a
    # reordering impairment — the deltas isolate trunk serialization and
    # reorder tolerance.
    "fabric": [
        _ring_case("star-1g", GIGABIT, 0.01, 0.02),
        _ring_case("leafspine-2x4", GIGABIT, 0.01, 0.02, racks=2),
        _ring_case("leafspine-reorder", GIGABIT, 0.01, 0.02, racks=2, impair_name="reorder"),
    ],
    # Multi-ring scaling: the same closed-loop engine at 1, 2, and 4
    # rings; ``repro figure scaling-rings`` checks the ratios.
    "scaling": [_multiring_case(1), _multiring_case(2), _multiring_case(4)],
}


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------


def select_cases(suite: str, cases: Optional[List[str]] = None) -> List[BenchCase]:
    """The suite's cases, optionally restricted to named ones (in suite
    order).  Unknown names are an error, not a silent skip."""
    if suite in SUITES:
        available = SUITES[suite]
    elif suite in _LAZY_SUITES:
        available = importlib.import_module(_LAZY_SUITES[suite]).CASES
    else:
        have = sorted(set(SUITES) | set(_LAZY_SUITES))
        raise ValueError(f"unknown suite {suite!r}; have {have}")
    if cases is None:
        return list(available)
    known = {case.name for case in available}
    unknown = sorted(set(cases) - known)
    if unknown:
        raise ValueError(
            f"unknown case(s) {unknown} in suite {suite!r}; have {sorted(known)}"
        )
    return [case for case in available if case.name in cases]


def run_case(case: BenchCase, seed: int = 0, repeats: int = DEFAULT_REPEATS) -> Report:
    """Run one case ``repeats`` times: the deterministic block must come
    out identical every time (a repeat-to-repeat drift means hidden
    global state), wall metrics are reported as medians."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    runs = [case.run(seed) for _ in range(repeats)]
    deterministic = runs[0]["deterministic"]
    for other in runs[1:]:
        if other["deterministic"] != deterministic:
            raise RuntimeError(
                f"case {case.name}: deterministic block varied across repeats "
                f"({deterministic} vs {other['deterministic']}) — the case is "
                f"not deterministic"
            )
    wall = {
        metric: statistics.median(run["wall"][metric] for run in runs)
        for metric in runs[0]["wall"]
    }
    return {"deterministic": deterministic, "wall": wall}


def run_suite(
    suite: str,
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
    progress: Optional[Callable[[str], None]] = None,
    case_names: Optional[List[str]] = None,
) -> Report:
    """Run every (selected) case in ``suite``; returns the report."""
    cases: Dict[str, Report] = {}
    for case in select_cases(suite, case_names):
        if progress is not None:
            what = f" — {case.summary}" if case.summary else ""
            progress(f"running {suite}/{case.name} ({repeats} repeats){what}...")
        result = cases[case.name] = run_case(case, seed=seed, repeats=repeats)
        if progress is not None:
            wall = result["wall"]
            progress(
                f"  {case.name}: {wall['ops_per_sec']:,.0f} ops/s "
                f"({wall['wall_time_s']:.2f}s wall)"
            )
    return {"suite": suite, "seed": seed, "repeats": repeats, "cases": cases}


def profile_case(case: BenchCase, seed: int, path: Path, top: int = 25) -> None:
    """Run one extra repetition of ``case`` under cProfile and dump the
    top ``top`` functions by cumulative time to ``path``.

    Separate from the measured repeats — instrumentation roughly doubles
    the wall clock, so its numbers never land in the report; it shows
    *where* the wall clock of the adjacent ``BENCH_<suite>.json`` went.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.runcall(case.run, seed)
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(top)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buffer.getvalue())


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------


def _same(expected: Any, actual: Any) -> bool:
    """Exact equality of type and value, except that a float matches a
    number within a relative 1e-6 — recursing into nested blocks so a
    float inside one gets the same treatment."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        return expected.keys() == actual.keys() and all(
            _same(value, actual[key]) for key, value in expected.items()
        )
    kinds = {type(expected), type(actual)}
    if float in kinds and kinds <= {int, float}:
        return math.isclose(expected, actual, rel_tol=1e-6)
    return type(expected) is type(actual) and expected == actual


def compare_reports(current: Report, baseline: Report) -> List[str]:
    """Compare a report against a baseline report.

    Returns human-readable regression messages; empty means the run is
    within tolerance.  Deterministic blocks must match in both
    directions, metric for metric (a new or a missing one fails too);
    ``ops_per_sec`` fails only below ``WALL_FLOOR`` of the baseline
    (getting faster is never a regression).  Cases the baseline does not
    know are ignored.
    """
    if current.get("seed") != baseline.get("seed"):
        return [
            f"seed mismatch: run has {current.get('seed')}, baseline has "
            f"{baseline.get('seed')} — deterministic metrics are per-seed"
        ]
    problems: List[str] = []
    cur_cases = current.get("cases", {})
    for name, base in baseline.get("cases", {}).items():
        cur = cur_cases.get(name)
        if cur is None:
            problems.append(f"{name}: missing from current run")
            continue
        expected = base.get("deterministic", {})
        actual = cur.get("deterministic", {})
        for metric in sorted(set(expected) | set(actual)):
            if metric not in expected or metric not in actual or not _same(
                expected[metric], actual[metric]
            ):
                problems.append(
                    f"{name}: {metric} changed (baseline "
                    f"{expected.get(metric)!r}, got {actual.get(metric)!r}) — "
                    f"deterministic metrics must match the committed baseline"
                )
        expected_rate = base.get("wall", {}).get("ops_per_sec")
        if expected_rate:
            actual_rate = cur.get("wall", {}).get("ops_per_sec", 0.0)
            floor = expected_rate * WALL_FLOOR
            if actual_rate < floor:
                problems.append(
                    f"{name}: ops_per_sec regressed to {actual_rate:,.0f} "
                    f"(baseline {expected_rate:,.0f}, floor {floor:,.0f})"
                )
    return problems


def results_path(suite: str, directory: Optional[Path] = None) -> Path:
    base = directory if directory is not None else Path(".")
    return base / f"BENCH_{suite}.json"


def baseline_path(suite: str, root: Optional[Path] = None) -> Path:
    base = root if root is not None else Path(".")
    return base / "benchmarks" / "baselines" / f"BENCH_{suite}.json"


def save_results(results: Report, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def load_results(path: Path) -> Report:
    return json.loads(path.read_text())


def run_from_args(
    suite: str,
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
    output: Optional[Path] = None,
    baseline: Optional[Path] = None,
    check_baseline: bool = False,
    update_baseline: bool = False,
    cases: Optional[List[str]] = None,
    profile: bool = False,
) -> int:
    """``repro bench``: run, write the report, then check or update the
    baseline.  Exit status 0 = fine, 1 = regression or missing baseline,
    2 = a request that cannot be honoured."""
    if (check_baseline or update_baseline) and seed != BASELINE_SEED:
        print(
            f"the committed baselines are recorded at seed {BASELINE_SEED}; "
            f"gating a seed-{seed} run against one would only report "
            f"legitimate per-seed differences"
        )
        return 2
    if update_baseline and cases is not None:
        print("--update-baseline needs the full suite, not --cases")
        return 2
    try:
        results = run_suite(
            suite, seed=seed, repeats=repeats, progress=print, case_names=cases
        )
    except ValueError as exc:
        print(str(exc))
        return 2
    out_path = output if output is not None else results_path(suite)
    save_results(results, out_path)
    print(f"wrote {out_path}")
    if profile:
        for case in select_cases(suite, cases):
            dump = out_path.parent / f"PROFILE_{suite}_{case.name}.txt"
            print(f"profiling {suite}/{case.name} -> {dump}")
            profile_case(case, seed, dump)
    base_path = baseline if baseline is not None else baseline_path(suite)
    if update_baseline:
        save_results(results, base_path)
        print(f"updated baseline {base_path}")
    elif check_baseline:
        if not base_path.exists():
            print(f"BASELINE MISSING: {base_path} — run with --update-baseline")
            return 1
        reference = load_results(base_path)
        if cases is not None:
            # A partial run is gated against the matching slice of the
            # committed baseline; the unselected cases are not "missing".
            reference["cases"] = {
                name: metrics
                for name, metrics in reference.get("cases", {}).items()
                if name in set(cases)
            }
        problems = compare_reports(results, reference)
        if problems:
            print(f"REGRESSIONS vs {base_path}:")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print(f"within tolerance of baseline {base_path}")
    return 0

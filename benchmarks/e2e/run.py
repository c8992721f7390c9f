#!/usr/bin/env python3
"""One end-to-end + per-layer benchmark for ring, membership, KV and the fleet.

    python3 benchmarks/e2e/run.py                       # all six workloads, R=10
    python3 benchmarks/e2e/run.py --workload fleet-sat --seed 1 --seconds 12
    python3 benchmarks/e2e/run.py --workload kv-zipf --trace 1
    python3 benchmarks/e2e/run.py --micro
    python3 benchmarks/e2e/run.py --aa 3 --out benchmarks/e2e/results/aa.json

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Exits non-zero when any verifier rejects the output.
See README.md for the glossary and the method.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"{__file__}: the program under test is missing: no {SRC}/repro")
sys.path[:0] = [SRC, HERE]

import harness  # noqa: E402
from harness import HOST, OUT_DIR, SIM, Slice, Tracer  # noqa: E402

DEFAULT_ROUNDS = 10


def _workloads():
    # Imported on use: the fleet and sim stacks are not needed by --micro.
    from fleet_workloads import fleet_rate_slice, fleet_sat_slice
    from sim_workloads import (
        kv_zipf_slice,
        member_crash_slice,
        ring_lossy_slice,
        ring_sat_slice,
    )

    return {
        "ring-sat": ring_sat_slice,
        "ring-lossy": ring_lossy_slice,
        "member-crash": member_crash_slice,
        "kv-zipf": kv_zipf_slice,
        "fleet-rate": fleet_rate_slice,
        "fleet-sat": fleet_sat_slice,
    }


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def _median_counts(slices: Sequence[Slice]) -> Dict[str, Dict[str, object]]:
    """Per-layer counters: median over slices, host-time ones normalised."""
    counts: Dict[str, Dict[str, object]] = {}
    for name, (_value, unit, clock) in slices[0].counts.items():
        values = []
        for piece in slices:
            value = piece.counts[name][0]
            values.append(value * piece.machine_factor if clock == HOST else value)
        counts[name] = {"value": statistics.median(values), "unit": unit, "clock": clock}
    return counts


def _trace_metrics(
    workload: str, seed: int, quick: bool, untraced: Sequence[Slice], run_slice
) -> Dict[str, Dict[str, object]]:
    """Run one extra slice with spans and cProfile on; write the trace."""
    tracer = Tracer(enabled=True)
    traced = harness.run_slices(run_slice, seed, quick, tracer, rounds=1)[0]
    layers = tracer.layer_profile()
    total_self = sum(layer["self_s"] for layer in layers.values())
    total_calls = sum(layer["calls"] for layer in layers.values())
    for layer in layers.values():
        layer["self_share"] = layer["self_s"] / total_self
    untraced_s = statistics.median(piece.measure_s for piece in untraced)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace_{workload}.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload, "seed": seed, "spans": tracer.spans, "layers": layers,
                "measure_s_traced": traced.measure_s, "measure_s_untraced": untraced_s,
            },
            handle, indent=1,
        )
    metrics = {
        f"trace.{name}.self_share": {"value": layer["self_share"], "unit": "ratio"}
        for name, layer in layers.items()
    }
    metrics["trace.py_calls_per_msg"] = {"value": total_calls / traced.msgs, "unit": "count"}
    metrics["bench.trace_overhead_ratio"] = {
        "value": traced.measure_s / untraced_s, "unit": "ratio",
    }
    return metrics


def run_micros_normalised() -> Dict[str, Dict[str, object]]:
    import micro

    before = harness.calibrate()
    raw = micro.run_micros()
    factor = harness.CALIB_REF_S / ((before + harness.calibrate()) / 2.0)
    return {name: {"value": value * factor, "unit": unit} for name, (value, unit) in raw.items()}


def run_workload(
    workload: str,
    seed: int,
    seconds: Optional[float],
    rounds: Optional[int],
    trace: bool,
    quick: bool,
) -> Dict[str, object]:
    """Everything one workload reports: end-to-end summary from untraced
    slices, and with ``trace`` the per-layer metrics as well."""
    run_slice = _workloads()[workload]
    if rounds is None and seconds is None:
        rounds = 2 if quick else DEFAULT_ROUNDS
    if trace and rounds is None:
        seconds = seconds * 0.4  # the traced slice and the micros take the rest
    # A shortened, discarded slice first: a cold process (imports, code
    # objects, allocator arenas) measures up to 40 % slow.
    run_slice(seed, True, Tracer(False))
    slices = harness.run_slices(run_slice, seed, quick, Tracer(False), seconds, rounds)
    e2e = harness.summarize(slices)
    e2e["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MiB", "clock": "process",
    }
    problems = sorted({problem for piece in slices for problem in piece.problems})
    result: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(piece.attempted for piece in slices),
        "failed": sum(piece.failed for piece in slices),
        "digest": slices[0].digest,
        "e2e": e2e,
    }
    if trace:
        per_layer = _median_counts(slices)
        per_layer.update(_trace_metrics(workload, seed, quick, slices, run_slice))
        per_layer.update(run_micros_normalised())
        rates = [harness.slice_metrics(piece)["msgs_per_s"][0] for piece in slices]
        per_layer["bench.machine_factor"] = {
            "value": statistics.median(piece.machine_factor for piece in slices),
            "unit": "ratio",
        }
        per_layer["bench.slice_iqr_share"] = {"value": harness.iqr_share(rates), "unit": "ratio"}
        result["per_layer"] = per_layer
    return result


def _contract_line(result: Dict[str, object], trace: bool, spec: Dict[str, object]) -> str:
    """The driver's result line.  A per-layer metric the workload has no
    use for (``kv.*`` on a bare ring) reads 0."""
    source = result["per_layer"] if trace else result["e2e"]
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        measured = source.get(entry["name"], {"value": 0.0})
        if math.isfinite(measured["value"]):
            metrics[entry["name"]] = {"value": measured["value"], "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _print_workload(result: Dict[str, object]) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{'correct' if result['correct'] else 'INCORRECT'}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    for name, metric in result["e2e"].items():
        line = f"   {name:<18} {metric['value']:>14.6g} {metric['unit']:<7} [{metric['clock']}]"
        if "q1" in metric:
            line += f"  q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  slices {metric['slices']}"
        if "samples" in metric:
            line += f"  samples {metric['samples']}"
        print(line)
    for name, metric in sorted(result.get("per_layer", {}).items()):
        print(f"   {name:<46} {metric['value']:>14.6g} {metric['unit']}")


# ----------------------------------------------------------------------
# The suite, and A/A
# ----------------------------------------------------------------------


def run_suite(args: argparse.Namespace) -> Dict[str, object]:
    """Every workload, each in a fresh process (so peak RSS is its own)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    results = {}
    for workload in (entry["name"] for entry in load_spec()["workloads"]):
        out = os.path.join(OUT_DIR, f"result_{workload}_{os.getpid()}.json")
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--trace", str(args.trace), "--out", out,
        ]
        if args.rounds is not None:
            command += ["--rounds", str(args.rounds)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
        # The child's own report, without its machine-readable last line.
        print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
        with open(out, encoding="utf-8") as handle:
            results[workload] = json.load(handle)
        os.unlink(out)
        if done.returncode != 0:
            results[workload]["correct"] = False
    return {"seed": args.seed, "quick": args.quick, "workloads": results}


def aa_deviations(runs: Sequence[Dict[str, object]], spec: Dict[str, object]) -> List[Dict[str, object]]:
    """Per (workload, end-to-end metric): the largest pairwise deviation
    between the runs' medians, against the metric's bound.  Sim-time
    metrics must not deviate at all."""
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    rows = []
    for workload in runs[0]["workloads"]:
        for name, bound in bounds.items():
            metrics = [run["workloads"][workload]["e2e"][name] for run in runs]
            values = [metric["value"] for metric in metrics]
            deviation = (max(values) - min(values)) / min(values)
            allowed = 0.0 if metrics[0].get("clock") == SIM else bound
            rows.append({
                "workload": workload, "metric": name, "values": values,
                "deviation": deviation, "bound": allowed, "ok": deviation <= allowed,
            })
    return rows


def run_aa(args: argparse.Namespace) -> int:
    runs = []
    for index in range(args.aa):
        print(f"#### A/A run {index + 1} of {args.aa}", flush=True)
        runs.append(run_suite(args))
    rows = aa_deviations(runs, load_spec())
    print(f"{'workload':<14}{'metric':<18}{'max deviation':>14}{'bound':>8}  verdict")
    for row in rows:
        print(f"{row['workload']:<14}{row['metric']:<18}{row['deviation']:>14.4f}"
              f"{row['bound']:>8.2f}  {'ok' if row['ok'] else 'EXCEEDED'}")
    correct = all(w["correct"] for run in runs for w in run["workloads"].values())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs, "deviations": rows}, handle, indent=1)
    return 0 if correct and all(row["ok"] for row in rows) else 1


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="workload input seed")
    parser.add_argument("--seconds", type=float, help="time budget of one workload run")
    parser.add_argument("--rounds", type=int, help="number of slices (instead of --seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run a traced slice and the micros; report per-layer metrics")
    parser.add_argument("--micro", action="store_true", help="only the microbenchmarks")
    parser.add_argument("--quick", action="store_true", help="R=2 and shortened windows")
    parser.add_argument("--aa", type=int, metavar="N", help="run the suite N times, compare")
    parser.add_argument("--out", help="write the full result document here")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.micro:
        for name, metric in run_micros_normalised().items():
            print(f"{name:<46} {metric['value']:>12.1f} {metric['unit']}")
        return 0
    if args.aa:
        return run_aa(args)
    if args.workload is None:
        document = run_suite(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1)
        return 0 if all(w["correct"] for w in document["workloads"].values()) else 1
    spec = load_spec()
    if args.workload not in [entry["name"] for entry in spec["workloads"]]:
        sys.exit(f"unknown workload {args.workload!r}")
    began = time.perf_counter()
    result = run_workload(
        args.workload, args.seed, args.seconds, args.rounds, bool(args.trace), args.quick
    )
    result["run_s"] = time.perf_counter() - began
    _print_workload(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    print(_contract_line(result, bool(args.trace), spec))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

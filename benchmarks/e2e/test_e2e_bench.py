"""Self-test of the benchmark: ``python -m pytest benchmarks/e2e -q``.

Not collected by the tier-1 run (``testpaths = ["tests"]``).  Checks the
instrument, not the program: every metric BENCHMARK.json names is
emitted, sim-time results repeat exactly per seed and differ between
seeds, each verifier rejects a corrupted output, ``--quick`` is quick,
and the benchmark refuses to run without the program under test.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

import run  # noqa: E402  (puts src/ and this directory on sys.path)
import compare  # noqa: E402
import harness  # noqa: E402
import verify  # noqa: E402
from harness import SIM, Tracer  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _suite(tmp_path_factory, *flags: str):
    out = tmp_path_factory.mktemp("e2e") / "suite.json"
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--out", str(out), *flags],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - began
    assert done.returncode == 0, done.stdout
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), elapsed


@pytest.fixture(scope="module")
def quick_suite(tmp_path_factory):
    return _suite(tmp_path_factory)


@pytest.fixture(scope="module")
def traced_suite(tmp_path_factory):
    return _suite(tmp_path_factory, "--trace", "1")


def test_quick_suite_is_quick_and_correct(quick_suite):
    document, elapsed = quick_suite
    assert elapsed < 30.0
    assert sorted(document["workloads"]) == sorted(WORKLOADS)
    for result in document["workloads"].values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_every_end_to_end_metric_is_emitted_and_never_zero(quick_suite):
    document, _elapsed = quick_suite
    for workload in WORKLOADS:
        e2e = document["workloads"][workload]["e2e"]
        for entry in SPEC["end_to_end"]:
            assert e2e[entry["name"]]["unit"] == entry["unit"], (workload, entry["name"])
            assert e2e[entry["name"]]["value"] > 0, (workload, entry["name"])
        for name in ("latency_p50_us", "latency_p95_us"):
            assert e2e[name]["samples"] > 0  # sample counts accompany percentiles


def test_every_per_layer_metric_is_emitted(traced_suite):
    document, _elapsed = traced_suite
    named = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    seen = set()
    for workload in WORKLOADS:
        per_layer = document["workloads"][workload]["per_layer"]
        for name, metric in per_layer.items():
            assert named[name] == metric["unit"], f"{name} missing from BENCHMARK.json"
        seen.update(per_layer)
        shares = [m["value"] for n, m in per_layer.items() if n.endswith(".self_share")]
        assert abs(sum(shares) - 1.0) < 0.01
        assert per_layer["bench.trace_overhead_ratio"]["value"] > 0
        assert os.path.exists(os.path.join(HERE, "out", f"trace_{workload}.json"))
    assert seen == set(named)  # each named metric comes from some workload


def test_tracing_leaves_sim_results_unchanged(quick_suite, traced_suite):
    for workload in WORKLOADS:
        plain = quick_suite[0]["workloads"][workload]
        traced = traced_suite[0]["workloads"][workload]
        assert plain["digest"] == traced["digest"]
        for name, metric in plain["e2e"].items():
            if metric.get("clock") == SIM:
                assert metric["value"] == traced["e2e"][name]["value"], (workload, name)


def test_contract_line_lists_the_metrics_of_benchmark_json():
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "ring-lossy", "--quick", "--seed", "3",
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    line = json.loads(done.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(line["metrics"]) == sorted(e["name"] for e in SPEC["end_to_end"])


def test_seeds_reproduce_and_differ():
    from sim_workloads import ring_lossy_slice

    first, again, other = (
        ring_lossy_slice(seed, True, Tracer()) for seed in (0, 0, 1)
    )
    assert first.digest == again.digest != other.digest
    for name, (value, _unit, clock) in harness.slice_metrics(first).items():
        if clock == SIM:
            assert value == harness.slice_metrics(again)[name][0]
    first.latencies = first.latencies[:-1]
    with pytest.raises(RuntimeError):
        harness.summarize([first, again])  # sim-time drift between slices


def test_verifiers_reject_corrupted_output():
    streams = {pid: [(0, 1), (1, 2), (2, 3), (0, 4)] for pid in range(3)}
    assert verify.same_order(streams) == []
    assert verify.undelivered(streams[0], streams) == 0

    swapped = {**streams, 1: [(0, 1), (2, 3), (1, 2), (0, 4)]}  # swapped delivery
    assert "position 1" in verify.same_order(swapped)[0]

    dropped = {**streams, 2: streams[2][:-1]}  # the ack of (0, 4) never came
    assert verify.undelivered(streams[0], dropped) == 1
    assert verify.same_order(dropped)

    agreed = {0: {0: "aa", 1: "aa"}, 1: {0: "bb", 1: "bb"}}
    assert verify.stores_agree(agreed) == []
    assert verify.stores_agree({**agreed, 1: {0: "bb", 1: "bc"}})  # diverged digest


def test_compare_verdicts():
    base = {"value": 100.0, "q1": 99.0, "q3": 101.0}
    assert compare.verdict(base, {"value": 120.0}, "higher", 0.10) == "better"
    assert compare.verdict(base, {"value": 120.0}, "lower", 0.10) == "worse"
    assert compare.verdict(base, {"value": 105.0}, "lower", 0.10) == "within"
    wide = {"value": 100.0, "q1": 90.0, "q3": 110.0}
    assert compare.verdict(wide, {"value": 150.0}, "higher", 0.10) == "unresolved"


def test_aa_deviation_holds_sim_metrics_exact():
    def suite(rate, latency):
        e2e = {e["name"]: {"value": 1.0, "clock": "host"} for e in SPEC["end_to_end"]}
        e2e["msgs_per_s"] = {"value": rate, "clock": "host"}
        e2e["latency_p50_us"] = {"value": latency, "clock": "sim"}
        return {"workloads": {"ring-sat": {"e2e": e2e}}}

    rows = {r["metric"]: r for r in run.aa_deviations([suite(100, 5.0), suite(104, 5.0)], SPEC)}
    assert rows["msgs_per_s"]["ok"] and rows["latency_p50_us"]["ok"]
    rows = {r["metric"]: r for r in run.aa_deviations([suite(100, 5.0), suite(100, 5.1)], SPEC)}
    assert not rows["latency_p50_us"]["ok"]


def test_profile_entries_map_to_layers():
    assert harness.layer_of("/x/src/repro/apps/kv/store.py") == "apps.kv"
    assert harness.layer_of("/x/src/repro/net/simulator.py") == "net"
    assert harness.layer_of(os.path.join(HERE, "harness.py")) == "bench"
    assert harness.layer_of("/usr/lib/python3.11/asyncio/events.py") == "stdlib.asyncio"
    assert harness.layer_of("~") == "stdlib.other"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ring-sat", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""

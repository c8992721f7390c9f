"""The bench gate (repro.bench.harness): one schema, runner and comparator
for the sim, KV and runtime suites."""

import copy
import inspect
import json
from pathlib import Path

import pytest

from repro.bench.harness import (
    SUITES,
    WALL_FLOOR,
    BenchCase,
    baseline_path,
    compare_reports,
    load_results,
    results_path,
    run_case,
    run_from_args,
    save_results,
    select_cases,
)

#: One report per suite shape: (case name, deterministic block).
SHAPES = {
    "sim": ("a", {"events_processed": 100_000, "goodput_mbps": 500.0, "latency_us": 80.0}),
    "kv": ("cluster-tiny", {"operations": 100, "stores_converged": True,
                            "digest": {"0": "abc", "1": "def"}, "sim_time": 0.78}),
    "runtime": ("ring_serialized", {"messages": 200, "order_identity": True,
                                    "order_digest": "abc", "decode_errors": 0}),
}


@pytest.fixture(params=sorted(SHAPES))
def report(request):
    name, deterministic = SHAPES[request.param]
    return {
        "suite": request.param,
        "seed": 0,
        "repeats": 3,
        "cases": {
            name: {
                "deterministic": copy.deepcopy(deterministic),
                "wall": {"wall_time_s": 0.1, "ops_per_sec": 1000.0},
            }
        },
    }


def _edited(report, block, **changes):
    edited = copy.deepcopy(report)
    (case,) = edited["cases"].values()
    for metric, value in changes.items():
        if value is None:
            del case[block][metric]
        else:
            case[block][metric] = value
    return edited


# ----------------------------------------------------------------------
# compare_reports semantics
# ----------------------------------------------------------------------


def test_identical_reports_pass(report):
    assert compare_reports(report, report) == []


def test_every_deterministic_value_is_pinned_in_both_directions(report):
    (case,) = report["cases"].values()
    for metric, value in case["deterministic"].items():
        if isinstance(value, bool):
            drifts = [not value]
        elif isinstance(value, int):
            drifts = [value + 3, value - 1]  # a health counter going 0 -> 3 included
        elif isinstance(value, float):
            drifts = [value * 1.001, value * 0.999]
        elif isinstance(value, dict):
            drifts = [{**value, "0": "xyz"}, {"0": value["0"]}]
        else:
            drifts = [value + "x"]
        for drift in drifts:
            problems = compare_reports(_edited(report, "deterministic", **{metric: drift}), report)
            assert len(problems) == 1 and f": {metric} changed" in problems[0], (metric, drift)


def test_floats_match_within_a_relative_1e_6_and_bools_are_not_ints(report):
    (case,) = report["cases"].values()
    for metric, value in case["deterministic"].items():
        if isinstance(value, float):
            close = _edited(report, "deterministic", **{metric: value * (1 + 1e-9)})
            assert compare_reports(close, report) == []
        elif value == 0:
            assert compare_reports(_edited(report, "deterministic", **{metric: False}), report)


def test_new_and_missing_deterministic_metrics_fail(report):
    (case,) = report["cases"].values()
    metric = sorted(case["deterministic"])[0]
    assert any("extra" in p for p in compare_reports(_edited(report, "deterministic", extra=1), report))
    problems = compare_reports(_edited(report, "deterministic", **{metric: None}), report)
    assert len(problems) == 1 and metric in problems[0]


def test_missing_case_fails_and_extra_current_case_is_ignored(report):
    (name,) = report["cases"]
    empty = {**report, "cases": {}}
    assert compare_reports(empty, report) == [f"{name}: missing from current run"]
    assert compare_reports(report, empty) == []


def test_wall_gate_trips_only_below_the_floor(report):
    floor = 1000.0 * WALL_FLOOR
    assert compare_reports(_edited(report, "wall", ops_per_sec=floor + 1), report) == []
    assert compare_reports(_edited(report, "wall", ops_per_sec=99_999.0), report) == []
    problems = compare_reports(_edited(report, "wall", ops_per_sec=floor - 1), report)
    assert len(problems) == 1 and "ops_per_sec" in problems[0]
    # No other wall metric is gated.
    assert compare_reports(_edited(report, "wall", wall_time_s=99.0), report) == []


def test_seed_mismatch_is_one_message_not_metric_noise(report):
    other = _edited({**report, "seed": 3}, "deterministic", extra=1)
    problems = compare_reports(other, report)
    assert len(problems) == 1 and "seed" in problems[0]


# ----------------------------------------------------------------------
# Paths, persistence, committed baselines
# ----------------------------------------------------------------------


def test_paths_and_stable_on_disk_form(tmp_path, report):
    assert results_path("smoke", tmp_path) == tmp_path / "BENCH_smoke.json"
    assert baseline_path("kv", tmp_path) == tmp_path / "benchmarks" / "baselines" / "BENCH_kv.json"
    path = tmp_path / "nested" / "BENCH_smoke.json"
    save_results(report, path)
    assert load_results(path) == report
    assert path.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("suite", ["smoke", "headline", "scaling", "fabric", "kv", "runtime"])
def test_committed_baselines_have_the_one_schema(suite):
    root = Path(__file__).resolve().parents[2]
    doc = load_results(baseline_path(suite, root))
    assert doc["suite"] == suite and doc["seed"] == 0
    assert sorted(doc["cases"]) == sorted(case.name for case in select_cases(suite))
    for case in doc["cases"].values():
        assert set(case) == {"deterministic", "wall"}
        assert case["deterministic"] and case["wall"]["ops_per_sec"] > 0


def test_suites_are_defined():
    for suite, cases in SUITES.items():
        names = [case.name for case in cases]
        assert len(names) == len(set(names)), suite
    assert {"batch-10g-mpd2", "batch-10g-mpd4", "batch-10g-mpd8"} <= {
        case.name for case in SUITES["headline"]
    }


# ----------------------------------------------------------------------
# The runner and the check/update block
# ----------------------------------------------------------------------


def _stub(name="stub", drift=False):
    calls = []

    def run(seed):
        calls.append(seed)
        value = len(calls) if drift else 7
        return {
            "deterministic": {"seed": seed, "value": value},
            "wall": {"wall_time_s": 0.1 * len(calls), "ops_per_sec": 100.0 / len(calls)},
        }

    return BenchCase(name=name, run=run)


def test_run_case_takes_wall_medians_and_asserts_determinism():
    result = run_case(_stub(), seed=5, repeats=3)
    assert result["deterministic"] == {"seed": 5, "value": 7}
    assert result["wall"] == {"wall_time_s": pytest.approx(0.2), "ops_per_sec": 50.0}
    with pytest.raises(RuntimeError, match="not deterministic"):
        run_case(_stub(drift=True), repeats=2)
    with pytest.raises(ValueError):
        run_case(_stub(), repeats=0)


def test_a_simulated_case_reproduces_its_deterministic_block():
    tiny = select_cases("smoke", ["agreed-1g-200"])[0]
    result = run_case(tiny, repeats=2)
    assert result["deterministic"]["events_processed"] > 0
    assert result["wall"]["ops_per_sec"] > 0 and result["wall"]["peak_rss_kb"] > 0
    assert run_case(tiny, repeats=1)["deterministic"] == result["deterministic"]


def test_unknown_suite_or_case_exits_2(tmp_path):
    assert run_from_args("no-such-suite") == 2
    assert run_from_args("smoke", cases=["no-such-case"], output=tmp_path / "out.json") == 2
    with pytest.raises(ValueError):
        select_cases("no-such-suite")


def test_check_update_round_trip_and_refusals(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(SUITES, "tiny", [_stub("one"), _stub("two")])
    out = tmp_path / "BENCH_tiny.json"
    base = tmp_path / "baselines" / "BENCH_tiny.json"
    run = lambda **kw: run_from_args("tiny", repeats=1, output=out, baseline=base, **kw)  # noqa: E731
    assert run(check_baseline=True) == 1  # baseline missing
    assert "BASELINE MISSING" in capsys.readouterr().out
    assert run(update_baseline=True, cases=["one"]) == 2  # needs the full suite
    assert not base.exists()
    assert run(update_baseline=True) == 0
    assert run(check_baseline=True) == 0
    # A partial run gates against the matching slice of the baseline.
    assert run(check_baseline=True, cases=["two"]) == 0
    assert sorted(load_results(out)["cases"]) == ["two"]
    # Baselines gate seed-0 runs only: refused before anything runs.
    assert run(check_baseline=True, seed=3) == 2
    assert run(update_baseline=True, seed=3) == 2
    assert run(seed=3) == 0 and load_results(out)["seed"] == 3
    # A drifted deterministic value is a regression.
    drifted = load_results(base)
    drifted["cases"]["one"]["deterministic"]["value"] = 99
    save_results(drifted, base)
    assert run(check_baseline=True) == 1
    assert "REGRESSIONS" in capsys.readouterr().out


def test_profile_writes_top_functions_dump(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    assert run_from_args("smoke", repeats=1, output=out, cases=["agreed-1g-200"], profile=True) == 0
    text = (tmp_path / "PROFILE_smoke_agreed-1g-200.txt").read_text()
    # A cProfile cumulative dump over case.run: the event loop appears.
    assert "cumulative" in text and "simulator.py" in text


def test_ring_serialized_is_event_driven_and_reproducible():
    from repro.runtime import bench

    (case,) = select_cases("runtime", ["ring_serialized"])
    first, second = case.run(0), case.run(0)
    assert first["deterministic"] == second["deterministic"]
    assert first["deterministic"]["order_identity"] is True
    assert first["deterministic"]["delivered_per_node"] == 200
    # The instrument stays out of the measured path: no polling sleep.
    assert "sleep(" not in inspect.getsource(bench._ring_serialized_async)

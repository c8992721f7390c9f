"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_builds_all_subcommands():
    parser = build_parser()
    for command in ("demo", "sweep", "maxtp", "figure", "daemon", "soak",
                    "conformance"):
        args = parser.parse_args([command] + (
            ["--pid", "0"] if command == "daemon" else
            (["2"] if command == "figure" else
             (["run"] if command == "conformance" else []))
        ))
        assert args.command == command


def test_soak_defaults_match_the_nightly_invocation():
    args = build_parser().parse_args(["soak"])
    assert args.plans == 200
    assert args.hosts == 4
    assert args.seed == 1
    assert args.replay is None


def test_demo_defaults():
    args = build_parser().parse_args(["demo"])
    assert args.profile == "spread"
    assert args.network == "1g"
    assert args.rate == 300.0


def test_unknown_figure_fails_cleanly(capsys):
    assert main(["figure", "99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


def test_demo_runs_end_to_end(capsys):
    # Small operating point to keep the run fast.
    code = main([
        "demo", "--profile", "library", "--network", "1g",
        "--rate", "100", "--service", "agreed",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "original" in out and "accelerated" in out
    assert "Mbps" in out


def test_sweep_runs_end_to_end(capsys):
    code = main([
        "sweep", "--profile", "library", "--rates", "100,200",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "original" in out and "accelerated" in out
    assert out.count("100") >= 2


def test_conformance_defaults_match_the_nightly_invocation():
    args = build_parser().parse_args(["conformance", "explore"])
    assert args.hosts == 4
    assert args.depth == 2
    assert args.budget == 24
    assert args.variants == "original,accelerated"


def test_conformance_replay_without_artifact_fails_cleanly(capsys):
    assert main(["conformance", "replay"]) == 2
    assert "artifact" in capsys.readouterr().err


def test_conformance_run_and_report_round_trip(tmp_path, capsys):
    # A deliberately tiny workload keeps this a unit-scale test.
    code = main([
        "conformance", "run", "--rounds", "1", "--burst-size", "4",
        "--probe-burst", "2", "--seed", "3", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    artifact = tmp_path / "conformance_report.json"
    assert artifact.exists()
    assert main(["conformance", "report", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "differential" in out
    assert "coverage.deliver.messages" in out


def test_fleet_parser_defaults():
    args = build_parser().parse_args(["fleet", "run"])
    assert args.fleet_mode == "run"
    assert args.daemons == 3
    assert args.clients == 8
    assert not args.crash


def test_conformance_realtime_parses():
    args = build_parser().parse_args(["conformance", "realtime", "--crash"])
    assert args.mode == "realtime"
    assert args.crash


def test_bench_is_the_only_bench_entry_point(capsys):
    for gone in (["kv", "bench"], ["fleet", "bench"], ["bench", "--wall-tol", "0.7"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(gone)
    capsys.readouterr()
    # The committed baselines gate seed-0 runs only; refused before running.
    assert main(["bench", "--suite", "kv", "--seed", "3", "--check-baseline"]) == 2
    assert "seed" in capsys.readouterr().out

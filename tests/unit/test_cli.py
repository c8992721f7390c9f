"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_builds_all_subcommands():
    parser = build_parser()
    for command in ("demo", "figure", "chaos", "soak", "conformance", "kv", "fleet",
                    "daemon"):
        args = parser.parse_args([command] + (
            ["--pid", "0"] if command == "daemon" else
            (["2"] if command == "figure" else
             (["run"] if command in ("conformance", "kv", "fleet") else []))
        ))
        assert args.command == command
    for retired in ("sweep", "maxtp"):
        with pytest.raises(SystemExit):
            parser.parse_args([retired])


def test_soak_defaults_match_the_nightly_invocation():
    args = build_parser().parse_args(["soak"])
    assert args.plans == 200
    assert args.hosts == 4
    assert args.seed == 1


def test_demo_defaults():
    args = build_parser().parse_args(["demo"])
    assert args.profile == "spread"
    assert args.network == "1g"
    assert args.rate == 300.0


def test_unknown_figure_fails_cleanly(capsys):
    assert main(["figure", "99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_verify_is_gone_and_figure_all_parses():
    parser = build_parser()
    assert parser.parse_args(["figure", "all"]).key == "all"
    with pytest.raises(SystemExit):
        parser.parse_args(["verify"])


def test_figure_saves_prints_and_exits_1_on_a_failed_check(tmp_path, monkeypatch, capsys):
    from repro.bench import figures, report

    monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
    table = report.Table(["n"], [["1"]])
    monkeypatch.setitem(figures.FIGURES, "x", figures.Figure("x.txt", lambda: ("X", table), (
        ("n is 1", lambda t: t.rows[0][0] == "1"),
        ("n is 2", lambda t: t.rows[0][0] == "2"),
    )))
    assert main(["figure", "x"]) == 1
    out = capsys.readouterr().out
    assert "PASS  x: n is 1" in out and "FAIL  x: n is 2" in out
    assert (tmp_path / "x.txt").read_text() == "X\n-\nn\n1\n"


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


def _divergence(detail):
    from repro.conformance.differ import ConformanceDivergence

    return ConformanceDivergence(
        kind="evs", variant_a="a", variant_b="b", phase="main", detail=detail
    )


def _exploration(source, report):
    from repro.faults.explorer import ExplorationCase, ExplorationReport
    from repro.obs.coverage import CoverageReport

    failing = ExplorationCase(
        label=0, seed=1, ring=1, steps=[(10, "crash", 1), (10, "heal", 0)], events=1,
        ok=False, report=report, minimized_steps=[(10, "crash", 1)],
    )
    passing = ExplorationCase(
        label=1, seed=2, ring=0, steps=[], events=0, ok=True, report={"ok": True}
    )
    return ExplorationReport(
        source, {}, enumerated=2, ran=2, cases=[failing, passing],
        coverage=CoverageReport({"coverage.token.sent": 4}),
    )


@pytest.mark.parametrize(
    "source, report, finding",
    [
        ("instants", {"ok": False, "divergences": [_divergence("lost").to_dict()]},
         "EVS violation in b: lost"),
        ("ring-grid", {"ok": False, "converged": False, "evs": {"1": "gap"},
                       "deliveries": 3}, "ring 1: gap"),
        ("soak", {"ok": False, "violation": "virtual synchrony"}, "virtual synchrony"),
    ],
)
def test_conformance_report_reads_an_exploration_from_any_source(
    tmp_path, capsys, source, report, finding
):
    artifact = tmp_path / "exploration.json"
    artifact.write_text(_exploration(source, report).to_json())
    assert main(["conformance", "report", str(artifact)]) == 1
    out = capsys.readouterr().out
    assert f"FAIL  {source}: enumerated=2 deduped=0 ran=2" in out
    assert "case 0 seed=1 ring=1 minimized to 1 step(s):" in out
    assert finding in out
    assert "coverage.token.sent" in out


def test_conformance_report_reads_a_sharded_report(tmp_path, capsys):
    from repro.conformance.differ import ConformanceReport
    from repro.conformance.multiring import ShardedWorkload

    report = ConformanceReport(
        workload=ShardedWorkload(), plan_events=[], seed=0, variants=("rings-1", "rings-2"),
        divergences=[_divergence("ring 0 lost g1.3")], deliveries={"rings-1": 36},
    )
    artifact = tmp_path / "conformance_sharded.json"
    artifact.write_text(report.to_json())
    assert main(["conformance", "report", str(artifact)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  differential: variants=rings-1,rings-2 seed=0" in out
    assert "num_groups=6" in out
    assert "ring 0 lost g1.3" in out


def test_conformance_report_reads_a_realtime_report(tmp_path, capsys):
    from repro.conformance.differ import ConformanceReport
    from repro.conformance.realtime import RealtimeWorkload

    report = ConformanceReport(
        workload=RealtimeWorkload(crash=True), plan_events=[], seed=0,
        variants=("sim", "real"), deliveries={"sim": 9, "real": 9},
        converged={"sim": True, "real": True},
    )
    artifact = tmp_path / "conformance_realtime.json"
    artifact.write_text(report.to_json())
    assert main(["conformance", "report", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "PASS  differential: variants=sim,real seed=0" in out
    assert "crash=True" in out


@pytest.mark.parametrize("command, artifact", [
    (["conformance", "sharded", "--groups", "2"], "conformance_sharded.json"),
    (["conformance", "realtime", "--hosts", "3", "--burst-size", "4"],
     "conformance_realtime.json"),
])
def test_a_sharded_or_realtime_report_replays(tmp_path, capsys, command, artifact):
    # At the parent `replay` rejected both ("not a report replay reads").
    assert main(command + ["--out", str(tmp_path)]) == 0
    (written,) = _status_lines(capsys.readouterr().out)
    assert main(["conformance", "replay", str(tmp_path / artifact)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"replaying {written[len('  PASS  '):]}", "  PASS  the failure no longer reproduces",
    ]


@pytest.mark.parametrize("document", [
    # Shaped like what the parent's sharded and realtime commands wrote.
    {"workload": {"num_groups": 6}, "seed": 0, "ring_counts": [1, 2], "divergences": [],
     "deliveries": {}, "evs": {}, "converged": {}, "shards": {}, "ok": True},
    {"workload": {"num_hosts": 3}, "crash": False, "variants": ["sim", "real"],
     "divergences": [], "deliveries": {}, "converged": {}, "decode_errors": 0, "ok": True},
])
def test_a_parent_sharded_or_realtime_document_is_not_a_report(tmp_path, capsys, document):
    artifact = tmp_path / "old.json"
    artifact.write_text(json.dumps(document))
    assert main(["conformance", "report", str(artifact)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "not a report report reads" in err


def _status_lines(out):
    return [line for line in out.splitlines() if line.startswith(("  PASS  ", "  FAIL  "))]


@pytest.mark.parametrize("command, artifact", [
    (["soak", "--plans", "1", "--hosts", "3", "--seed", "2"], "soak_report.json"),
    (["conformance", "run", "--rounds", "1", "--burst-size", "4", "--probe-burst", "2"],
     "conformance_report.json"),
    (["conformance", "sharded", "--rings", "1,2", "--groups", "2"],
     "conformance_sharded.json"),
    (["conformance", "realtime"], "conformance_realtime.json"),
])
def test_a_report_reads_back_with_the_status_line_it_was_written_with(
    tmp_path, capsys, command, artifact
):
    # At the parent each producer formatted its own line, and `report`
    # a different one for the same document.
    assert main(command + ["--out", str(tmp_path)]) == 0
    (written,) = _status_lines(capsys.readouterr().out)
    assert main(["conformance", "report", str(tmp_path / artifact)]) == 0
    assert _status_lines(capsys.readouterr().out) == [written]


def test_report_and_replay_read_a_soak_counterexample(tmp_path, capsys):
    # At the parent `report` rejected it ("not a report this reads", exit
    # 2) and only `soak --replay` read it.
    from repro.faults.soak import Counterexample, case_seed

    artifact = tmp_path / "counterexample_0.json"
    artifact.write_text(Counterexample(
        soak_seed=1, index=0, seed=case_seed(1, 0), num_hosts=4,
        violation="virtual synchrony\nat pid 2", steps=[(10, "token_drop", 0)],
        minimized_steps=[(10, "token_drop", 0)],
    ).to_json())
    assert main(["conformance", "report", str(artifact)]) == 1
    line = "counterexample: soak seed=1 case=0 seed=1000003 hosts=4 events=1"
    assert capsys.readouterr().out.splitlines()[:3] == [
        f"  FAIL  {line}", "        virtual synchrony", "        at pid 2",
    ]
    # The recorded schedule no longer violates EVS: replay says so.
    assert main(["conformance", "replay", str(artifact)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"replaying {line}", "  PASS  the failure no longer reproduces",
    ]


def test_replay_rejects_a_kind_that_does_not_replay(tmp_path, capsys):
    artifact = tmp_path / "exploration.json"
    artifact.write_text(_exploration("soak", {"ok": False, "violation": "x"}).to_json())
    assert main(["conformance", "replay", str(artifact)]) == 2
    assert "a differential or a soak counterexample" in capsys.readouterr().err


def test_a_bad_ring_count_exits_2_with_one_line(capsys):
    # At the parent `--rings 1,x` died in a ValueError traceback.
    with pytest.raises(SystemExit) as exited:
        main(["conformance", "sharded", "--rings", "1,x"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        "accelring conformance: error: argument --rings: "
        "expected comma-separated ring counts, got '1,x'"
    )


def test_conformance_report_rejects_other_documents(tmp_path, capsys):
    artifact = tmp_path / "fleet_smoke.json"
    artifact.write_text('{"acked": 12}')
    assert main(["conformance", "report", str(artifact)]) == 2
    err = capsys.readouterr().err
    assert "exploration or soak report" in err
    assert "differential, sharded or realtime report" in err


def test_fleet_parser_defaults():
    args = build_parser().parse_args(["fleet", "run"])
    assert args.fleet_mode == "run"
    assert args.daemons == 3
    assert args.clients == 8
    assert not args.crash


@pytest.mark.parametrize("flags, message", [
    (["--daemons", "0"], "a fleet needs at least one daemon, got 0"),
    (["--clients", "0"], "got 0 client(s) x pipeline 1"),
    (["--pipeline", "0"], "got 8 client(s) x pipeline 0"),
])
def test_a_fleet_run_that_sends_nothing_exits_2_with_one_line(capsys, flags, message):
    # At the parent --clients 0 / --pipeline 0 passed ("acked 0/0") after
    # waiting out the deadline, and --daemons 0 died in a traceback.
    assert main(["fleet", "run", "--duration", "0.2"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert message in captured.err
    assert "PASS" not in captured.out


def test_fleet_run_shows_coalescing_and_survives_a_crash(capsys):
    # The human line says whether coalescing is live (PROTOCOL.md §9.1);
    # with --crash the ring re-forms and every message is still acked.
    code = main([
        "fleet", "run", "--clients", "6", "--pipeline", "4",
        "--duration", "1.0", "--crash",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS" in out and "datagrams/msg" in out
    assert float(out.rsplit("msgs/batch", 1)[1].split(",")[0]) > 1.0
    # ... and whether a pass's deliveries still share a client's write.
    assert float(out.rsplit("msgs/client-write", 1)[1].split(",")[0]) > 1.0


def test_conformance_realtime_parses():
    args = build_parser().parse_args(["conformance", "realtime", "--crash"])
    assert args.mode == "realtime"
    assert args.crash


def _stub_fleet(monkeypatch, **counters):
    """``fleet run`` against a stub fleet whose workload reports every
    message acked and ``counters`` (the rest 0)."""
    from repro.runtime import fleet

    class StubFleet:
        def __init__(self, **kwargs):
            pass

        async def start(self):
            pass

        async def drain_and_stop(self):
            pass

    async def workload(fleet, **kwargs):
        return {
            "messages_sent": 10, "messages_acked": 10, "duration_s": 1.0,
            "msgs_per_sec": 10.0, "latency_p50_ms": 1.0, "latency_p99_ms": 2.0,
            "reconnects": 0,
            "counters": {
                "decode_errors": 0, "clients_dropped_slow": 0, "batches_sent": 0,
                "batched_messages": 0, "datagrams_sent": 10,
                "messages_delivered_to_clients": 10, "client_writes": 10,
                "containers_sent": 0, "envelopes_packed": 0,
                **counters,
            },
        }

    monkeypatch.setattr(fleet, "Fleet", StubFleet)
    monkeypatch.setattr(fleet, "run_fleet_workload", workload)


@pytest.mark.parametrize("counter", ["decode_errors", "clients_dropped_slow"])
def test_fleet_run_fails_on_a_nonzero_health_counter(monkeypatch, capsys, counter):
    _stub_fleet(monkeypatch)
    assert main(["fleet", "run"]) == 0
    assert "PASS" in capsys.readouterr().out
    _stub_fleet(monkeypatch, **{counter: 1})
    assert main(["fleet", "run"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["fleet", "run", "--json"]) == 1


class _Report:
    def __init__(self, ok):
        self.ok = ok

    def to_json(self):
        return '{\n  "ok": %s\n}\n' % str(self.ok).lower()


def _emit_args(json=False, out=None):
    import argparse

    return argparse.Namespace(json=json, out=None if out is None else str(out))


@pytest.mark.parametrize("ok, code, status", [(True, 0, "PASS"), (False, 1, "FAIL")])
def test_emit_prints_the_status_line_then_details_and_returns_the_exit_code(
    capsys, ok, code, status
):
    from repro.cli.checks import _emit

    details = ["        first detail", "  second, indented as given"]
    assert _emit(_emit_args(), _Report(ok), "fields=1", "r.json", details) == code
    out = capsys.readouterr().out
    assert out == f"  {status}  fields=1\n" + "".join(d + "\n" for d in details)


def test_emit_json_prints_the_canonical_text_and_nothing_else(capsys, tmp_path):
    from repro.cli.checks import _emit

    report = _Report(False)
    args = _emit_args(json=True, out=tmp_path / "made" / "on-demand")
    assert _emit(args, report, "ignored", "r.json", ["ignored"]) == 1
    assert capsys.readouterr().out == report.to_json()
    assert (tmp_path / "made" / "on-demand" / "r.json").read_text() == report.to_json()


def test_emit_out_writes_the_artifact_and_says_where(capsys, tmp_path):
    from repro.cli.checks import _emit

    report = _Report(True)
    assert _emit(_emit_args(out=tmp_path), report, "x", "name.json") == 0
    assert (tmp_path / "name.json").read_text() == report.to_json()
    assert f"report written to {tmp_path / 'name.json'}" in capsys.readouterr().out


class _ClosedStdout:
    """A stdout whose reader has gone, as under ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        raise BrokenPipeError


@pytest.mark.parametrize("json", [False, True])
def test_emit_writes_the_artifact_before_a_closed_stdout_can_stop_it(
    monkeypatch, tmp_path, json
):
    from repro.cli.checks import _emit

    report = _Report(True)
    monkeypatch.setattr("sys.stdout", _ClosedStdout())
    with pytest.raises(BrokenPipeError):
        _emit(_emit_args(json=json, out=tmp_path), report, "x", "name.json", ["detail"])
    assert (tmp_path / "name.json").read_text() == report.to_json()


def test_kv_chaos_out_artifact_is_what_json_prints(capsys, tmp_path):
    assert main(["kv", "chaos", "kv-partition", "--seed", "1", "--json",
                 "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("}\n") and not printed.endswith("\n\n")
    assert (tmp_path / "kv-partition_seed1.json").read_text() == printed


def test_chaos_and_kv_chaos_share_listing_and_unknown_handling(capsys):
    for command, known in ((["chaos"], "leader-crash"), (["kv", "chaos"], "kv-cascade")):
        assert main(command + ["--list"]) == 0
        assert known in capsys.readouterr().out
        assert main(command + ["no-such-scenario"]) == 2
        assert "no-such-scenario" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["soak", "--plans", "2", "--hosts", "5", "--seed", "1", "--fabric-racks", "2"],
    ["conformance", "run", "--hosts", "5", "--fabric-racks", "2"],
])
def test_hosts_that_do_not_fill_the_racks_exit_2_with_one_line(capsys, command):
    # At the parent both died with a traceback (FaultError / KeyError: 4):
    # the fabric silently shrank the cluster to 4 hosts under a 5-host plan.
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "5 hosts do not split evenly over 2 racks" in captured.err

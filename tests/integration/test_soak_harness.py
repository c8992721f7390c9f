"""End-to-end soak harness integration: real drives, real artifacts.

Kept deliberately small (a handful of plans) — the full-size soak is the
nightly CI job (``python -m repro soak --plans 200``); this just proves
the pipeline works end to end: generate, drive, check, report, replay
(``conformance replay`` re-runs a counterexample).
"""

import json

from repro.cli import main
from repro.faults.soak import Counterexample, case_seed, run_soak

NUM_HOSTS = 4


def test_small_soak_runs_clean():
    report = run_soak(plans=3, num_hosts=NUM_HOSTS, seed=1)
    assert report.ok, report.to_json()
    assert [case.label for case in report.cases] == [0, 1, 2]
    assert [case.seed for case in report.cases] == [case_seed(1, i) for i in range(3)]
    assert all(case.report["violation"] is None for case in report.cases)


def test_small_fabric_soak_runs_clean():
    report = run_soak(
        plans=2, num_hosts=8, seed=1, fabric_racks=2, impair="reorder"
    )
    assert report.ok, report.to_json()
    assert report.params["fabric_racks"] == 2 and report.params["impair"] == "reorder"


def test_soak_cli_fabric_flags(tmp_path, capsys):
    code = main(
        ["soak", "--plans", "1", "--hosts", "8", "--seed", "1",
         "--fabric-racks", "2", "--impair", "jitter", "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "soak_report.json").read_text())
    assert payload["ok"] is True
    assert payload["params"]["fabric_racks"] == 2
    assert payload["params"]["impair"] == "jitter"


def test_soak_cli_writes_report_artifact(tmp_path, capsys):
    code = main(
        ["soak", "--plans", "2", "--hosts", "4", "--seed", "1",
         "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "soak_report.json").read_text())
    assert payload["ok"] is True
    assert payload["params"]["plans"] == 2
    assert len(payload["cases"]) == 2
    assert "PASS  soak: enumerated=2 deduped=0 ran=2 skipped_budget=0 failures=0" in (
        capsys.readouterr().out
    )


def test_soak_cli_replays_counterexample_artifact(tmp_path, capsys):
    artifact = Counterexample(
        soak_seed=1,
        index=0,
        seed=case_seed(1, 0),
        num_hosts=NUM_HOSTS,
        violation="pinned-and-fixed",
        steps=[(10, "token_drop", 0)],
        minimized_steps=[(10, "token_drop", 0)],
    )
    path = tmp_path / "counterexample_0.json"
    path.write_text(artifact.to_json())
    # The schedule it captures no longer violates EVS (that is the point
    # of shipping the fix with the artifact): replay reports clean.
    assert main(["conformance", "replay", str(path)]) == 0
    assert "no longer reproduces" in capsys.readouterr().out

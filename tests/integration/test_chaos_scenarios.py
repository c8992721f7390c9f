"""Integration tests for the chaos-scenario library (repro.faults).

Every named scenario must pass its EVS virtual-synchrony check, and
reports must be byte-identical across runs with the same seed — the
acceptance bar for `repro chaos`.
"""

import json

import pytest

from repro.cli import main
from repro.faults import SCENARIOS, run_scenario
from repro.util.errors import FaultError
from tests.integration.test_scenario_digests import assert_digest, chaos_key


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes_evs_and_converges(name):
    report = run_scenario(name, seed=7)
    assert report.violations == []
    assert report.converged
    assert report.ok
    # Every scenario actually injected something and moved traffic.
    assert report.events
    assert sum(report.deliveries.values()) > 0
    assert_digest(chaos_key(name), report.to_dict())


def test_same_seed_reports_are_byte_identical():
    a = run_scenario("leader-crash", seed=7).to_json()
    b = run_scenario("leader-crash", seed=7).to_json()
    assert a == b


def test_different_seed_changes_lossy_run():
    a = run_scenario("lossy-flap", seed=1).to_json()
    b = run_scenario("lossy-flap", seed=2).to_json()
    assert a != b


def test_report_shape():
    report = run_scenario("gc-stall", seed=3)
    payload = json.loads(report.to_json())
    assert payload["name"] == "gc-stall"
    assert payload["seed"] == 3
    assert payload["fault_metrics"]["fault.pauses"] == 1
    assert payload["fault_metrics"]["fault.resumes"] == 1
    # The 15 ms stall exceeds the 5 ms token-loss timeout: the ring
    # reformed around the stalled node, then merged it back.
    assert payload["final_rings"] == {str(pid): [0, 1, 2, 3] for pid in range(4)}


def test_fabric_scenarios_report_trunk_metrics():
    report = run_scenario("incast", seed=7)
    assert "fabric.frames_transited" in report.fault_metrics
    assert report.fault_metrics["fabric.frames_transited"] > 0
    assert "fabric.peak_trunk_queue_bytes" in report.fault_metrics
    # Star scenarios must NOT grow fabric keys (report-shape stability).
    star = run_scenario("leader-crash", seed=7)
    assert not any(key.startswith("fabric.") for key in star.fault_metrics)


def test_rack_power_loss_scenario_crashes_and_rejoins_the_rack():
    report = run_scenario("rack-power-loss", seed=7)
    assert report.ok
    assert report.fault_metrics["fault.rack_power_losses"] == 1
    assert report.fault_metrics["fault.crashes"] == 4
    assert report.final_rings == {pid: list(range(8)) for pid in range(8)}


def test_fabric_scenario_byte_identical_per_seed():
    a = run_scenario("reorder-storm", seed=7).to_json()
    b = run_scenario("reorder-storm", seed=7).to_json()
    assert a == b
    assert run_scenario("reorder-storm", seed=8).to_json() != a


def test_unknown_scenario_rejected():
    with pytest.raises(FaultError, match="unknown scenario"):
        run_scenario("does-not-exist")


class TestChaosCli:
    def test_list(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_single_scenario_json(self, capsys):
        assert main(["chaos", "token-loss", "--seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["fault_metrics"]["fault.token_drops"] == 3

    def test_unknown_scenario_exit_code(self, capsys):
        assert main(["chaos", "nope"]) == 2

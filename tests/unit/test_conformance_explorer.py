"""Unit tests for the harvested-instant schedule source, its dedup
plumbing, and the shared greedy minimizer (no simulator runs — the
integration suite covers the full explore loop)."""

from repro.conformance.explorer import (
    atom_steps,
    enumerate_schedules,
    schedule_to_steps,
)
from repro.conformance.workload import Workload
from repro.faults.explorer import ExplorationCase, ExplorationReport, greedy_minimize
from repro.faults.generator import build_plan


def test_atoms_expand_with_paired_repairs():
    assert atom_steps((30, "token_drop", 1)) == [(30, "token_drop", 1)]
    assert atom_steps((30, "crash", 1)) == [
        (30, "crash", 1),
        (90, "recover", 1),
    ]
    assert atom_steps((30, "pause", 2)) == [
        (30, "pause", 2),
        (45, "resume", 2),
    ]


def test_schedule_to_steps_delta_encodes_in_time_order():
    steps = schedule_to_steps([(40, "token_drop", 0), (10, "crash", 1)])
    # crash@10, token_drop@40, recover@70 -> deltas 10, 30, 30
    assert steps == [
        (10, "crash", 1),
        (30, "token_drop", 0),
        (30, "recover", 1),
    ]
    # The folded plan is valid and keeps absolute times.
    plan = build_plan(steps, num_hosts=4)
    assert len(plan) == 3


def test_enumeration_counts_and_determinism():
    first = enumerate_schedules([10, 20], num_hosts=4, depth=1,
                                actions=("token_drop",), pids=(0, 1))
    assert len(first) == 4  # 2 instants x 1 action x 2 pids
    second = enumerate_schedules([10, 20], num_hosts=4, depth=2,
                                 actions=("token_drop",), pids=(0, 1))
    # depth 2 adds C(4, 2) = 6 pairs on top of the 4 singletons
    assert len(second) == 10
    assert second == enumerate_schedules([10, 20], num_hosts=4, depth=2,
                                         actions=("token_drop",), pids=(0, 1))


def test_equivalent_schedules_fold_to_the_same_plan():
    # token_drop count depends only on pid parity (1 + pid % 2), so
    # pids 0 and 2 at the same instant are equivalent after folding.
    plan_a = build_plan(schedule_to_steps([(10, "token_drop", 0)]), 4)
    plan_b = build_plan(schedule_to_steps([(10, "token_drop", 2)]), 4)
    assert plan_a.to_dicts() == plan_b.to_dicts()


def test_greedy_minimize_removes_irrelevant_items():
    # Failure iff the sequence still contains both 3 and 7.
    def still_fails(items):
        return 3 in items and 7 in items

    result = greedy_minimize([1, 3, 5, 7, 9], still_fails)
    assert result == [3, 7]


def test_greedy_minimize_keeps_a_singleton_cause():
    def still_fails(items):
        return "bad" in items

    assert greedy_minimize(["a", "bad", "b"], still_fails) == ["bad"]


def test_fabric_workload_widens_actions_and_round_trips():
    from repro.conformance.explorer import (
        DEFAULT_ACTIONS,
        FABRIC_EXPLORE_ACTIONS,
    )

    assert FABRIC_EXPLORE_ACTIONS == DEFAULT_ACTIONS + ("rack_power_loss",)
    workload = Workload(num_hosts=4, fabric_racks=2, impair="reorder")
    clone = Workload.from_dict(workload.to_dict())
    assert clone.fabric_racks == 2 and clone.impair == "reorder"
    assert clone == workload
    # Legacy artifacts without the new keys still load as star workloads.
    payload = workload.to_dict()
    payload.pop("fabric_racks")
    payload.pop("impair")
    legacy = Workload.from_dict(payload)
    assert legacy.fabric_racks == 0 and legacy.impair == ""


def test_exploration_report_round_trips():
    report = ExplorationReport(
        source="instants",
        params={
            "workload": Workload(num_hosts=4).to_dict(),
            "seed": 5,
            "depth": 2,
            "variants": ["original", "accelerated"],
            "instants": [12, 34],
        },
        budget=10,
        enumerated=40,
        deduped=8,
        ran=10,
        skipped_budget=22,
        cases=[
            ExplorationCase(
                label=[[12, "crash", 1]],
                seed=5,
                ring=0,
                steps=[(12, "crash", 1), (60, "recover", 1)],
                events=2,
                ok=False,
                report={"ok": False, "divergences": []},
                minimized_steps=[(12, "crash", 1)],
            )
        ],
    )
    clone = ExplorationReport.from_json(report.to_json())
    assert clone.to_json() == report.to_json()
    assert clone == report
    assert not clone.ok and clone.failures == clone.cases
    assert clone.params["instants"] == [12, 34]

"""Unit tests for the soak harness: generation determinism,
counterexample round-trips, and report bookkeeping.

The expensive part — actually driving a cluster — is covered by
``tests/integration/test_evs_regressions.py`` and the property suite;
here ``check_plan`` is stubbed so the orchestration logic is exercised
in milliseconds.
"""

import random

from repro.faults.generator import (
    ACTIONS,
    build_plan,
    random_steps,
    steps_from_lists,
)
from repro.faults.soak import (
    Counterexample,
    case_seed,
    counterexamples,
    run_soak,
)

NUM_HOSTS = 4


# -- generator ----------------------------------------------------------


def test_random_steps_are_deterministic_per_seed():
    one = random_steps(random.Random(42), NUM_HOSTS)
    two = random_steps(random.Random(42), NUM_HOSTS)
    assert one == two
    assert random_steps(random.Random(43), NUM_HOSTS) != one or one == []


def test_every_random_step_sequence_builds_a_valid_plan():
    rng = random.Random(7)
    for _ in range(200):
        steps = random_steps(rng, NUM_HOSTS, max_steps=12)
        plan = build_plan(steps, NUM_HOSTS)
        # build_plan already validates; re-validate explicitly too.
        plan.validate(num_hosts=NUM_HOSTS)
        assert all(action in ACTIONS for _, action, _ in steps)


def test_build_plan_skips_invalid_steps_not_whole_plans():
    steps = [
        (10, "recover", 0),  # invalid: never crashed — skipped
        (10, "crash", 1),
        (10, "crash", 1),  # invalid: already crashed — skipped
        (10, "partition", 2),
        (10, "partition", 1),  # invalid: already partitioned — skipped
        (10, "heal", 0),
    ]
    plan = build_plan(steps, NUM_HOSTS)
    assert [event.kind for event in plan] == ["crash", "partition", "heal"]


def test_partition_split_is_clamped_to_valid_range():
    # pid 0 would split {} vs everyone; the clamp keeps both sides
    # non-empty for any num_hosts >= 2.
    plan = build_plan([(10, "partition", 0)], 2)
    groups = plan.events[0].groups
    assert all(group for group in groups)


def test_steps_round_trip_through_json_lists():
    steps = [(10, "crash", 1), (25, "token_drop", 3)]
    assert steps_from_lists([list(step) for step in steps]) == steps


def test_case_seeds_are_distinct_across_cases_and_soaks():
    seeds = {case_seed(s, i) for s in (1, 2, 3) for i in range(200)}
    assert len(seeds) == 600


# -- run_soak orchestration --------------------------------------------


def test_run_soak_records_cases_and_counterexamples(monkeypatch):
    calls = []

    def check(plan, num_hosts, seed, **kwargs):
        calls.append(seed)
        # Fail exactly one case, deterministically.
        return "boom" if len(calls) == 3 else None

    monkeypatch.setattr("repro.faults.soak.check_plan", check)
    progressed = []
    report = run_soak(
        plans=5,
        num_hosts=NUM_HOSTS,
        seed=9,
        minimize=False,
        progress=lambda report, case: progressed.append(case),
    )
    assert report.params["plans"] == 5 and len(report.cases) == 5
    assert [case.label for case in report.cases] == [0, 1, 2, 3, 4]
    assert len(report.failures) == 1 and not report.ok
    assert progressed == report.cases
    (failing,) = counterexamples(report)
    assert failing.index == 2
    assert failing.minimized_steps == failing.steps
    assert failing.seed == case_seed(9, 2)
    assert failing.violation == "boom"
    # Every case used its derived seed (replayable standalone).
    assert calls[:5] == [case_seed(9, i) for i in range(5)]


def test_clean_soak_report_shape(monkeypatch):
    monkeypatch.setattr(
        "repro.faults.soak.check_plan",
        lambda plan, num_hosts, seed, **kwargs: None,
    )
    report = run_soak(plans=3, num_hosts=NUM_HOSTS, seed=1)
    assert report.ok
    payload = report.to_dict()
    assert payload["ok"] is True
    assert payload["source"] == "soak"
    assert (payload["enumerated"], payload["ran"], payload["deduped"]) == (3, 3, 0)
    assert [case["report"] for case in payload["cases"]] == [
        {"ok": True, "violation": None}
    ] * 3
    assert all(case["minimized_steps"] is None for case in payload["cases"])
    assert counterexamples(report) == []


# -- counterexample artifacts ------------------------------------------


def test_counterexample_json_round_trip():
    steps = [(10, "crash", 1), (20, "token_drop", 0), (30, "recover", 1)]
    original = Counterexample(
        soak_seed=1,
        index=17,
        seed=case_seed(1, 17),
        num_hosts=NUM_HOSTS,
        violation="virtual synchrony violated ...",
        steps=steps,
        minimized_steps=steps[:2],
    )
    restored = Counterexample.from_json(original.to_json())
    assert restored == original
    assert restored.plan == original.plan
    assert restored.to_json() == original.to_json()


def test_fabric_soak_threads_dimensions_into_report(monkeypatch):
    seen = []

    def check(plan, num_hosts, seed, fabric_racks=0, impair=None):
        seen.append((fabric_racks, impair))
        return "boom"

    monkeypatch.setattr("repro.faults.soak.check_plan", check)
    report = run_soak(
        plans=2,
        num_hosts=NUM_HOSTS,
        seed=3,
        minimize=False,
        fabric_racks=2,
        impair="reorder",
    )
    assert seen == [(2, "reorder")] * 2
    assert report.params["fabric_racks"] == 2 and report.params["impair"] == "reorder"
    payload = report.to_dict()
    assert payload["params"]["fabric_racks"] == 2
    assert payload["params"]["impair"] == "reorder"
    failing = counterexamples(report)[0]
    assert failing.fabric_racks == 2 and failing.impair == "reorder"
    restored = Counterexample.from_json(failing.to_json())
    assert restored == failing


def test_fabric_soak_widens_the_action_vocabulary():
    from repro.faults.generator import FABRIC_ACTIONS

    assert FABRIC_ACTIONS == ACTIONS + ("rack_power_loss",)
    rng = random.Random(0)
    drawn = set()
    for _ in range(200):
        for _, action, _ in random_steps(
            rng, 8, max_steps=8, actions=FABRIC_ACTIONS
        ):
            drawn.add(action)
    assert "rack_power_loss" in drawn


def test_build_plan_folds_rack_power_loss_only_with_racks():
    steps = [(10, "rack_power_loss", 1), (80, "recover", 2)]
    with_racks = build_plan(steps, 4, racks=2)
    assert [event.kind for event in with_racks] == [
        "rack_power_loss",
        "recover",
    ]
    assert with_racks.events[0].pids == frozenset({2, 3})
    # Without racks the action (and the then-invalid recover) fold away.
    assert len(build_plan(steps, 4)) == 0


def test_counterexample_legacy_json_defaults_to_star():
    # Artifacts written before the fabric dimension must still load.
    payload = Counterexample(
        soak_seed=1,
        index=0,
        seed=7,
        num_hosts=NUM_HOSTS,
        violation="x",
        steps=[(10, "crash", 1)],
        minimized_steps=[(10, "crash", 1)],
    ).to_dict()
    payload.pop("fabric_racks")
    payload.pop("impair")
    restored = Counterexample.from_dict(payload)
    assert restored.fabric_racks == 0 and restored.impair is None


def test_counterexample_plan_rebuilds_from_minimized_steps():
    counterexample = Counterexample(
        soak_seed=1,
        index=0,
        seed=7,
        num_hosts=NUM_HOSTS,
        violation="x",
        steps=[(10, "crash", 1), (10, "heal", 0)],
        minimized_steps=[(10, "crash", 1)],
    )
    plan = counterexample.plan
    assert len(plan) == 1 and plan.events[0].kind == "crash"
    assert plan.to_dicts() == counterexample.to_dict()["plan"]

"""Unit tests for the one explorer (:mod:`repro.faults.explorer`) with
fake oracles: shrinking, dedup keyed on plan, seed and ring, budget
accounting for every schedule source, and coverage merging.  No
simulator runs — the integration suites drive the real oracles."""

from repro.conformance.explorer import explore_instants
from repro.conformance.multiring import explore_grid
from repro.conformance.workload import Workload
from repro.faults.explorer import Schedule, ScheduleSource, explore
from repro.faults.soak import Verdict, run_soak
from repro.obs.coverage import CoverageReport

NUM_HOSTS = 4


class FakeReport:
    def __init__(self, ok=True, coverage=None):
        self.ok = ok
        self.coverage = coverage

    def to_dict(self):
        return {"ok": self.ok}


def fails_when(predicate):
    """An oracle that fails exactly when ``predicate(plan)`` holds."""

    def oracle(plan, seed, ring):
        return Verdict("violation" if predicate(plan) else None)

    return oracle


def kinds(plan):
    return {event.kind for event in plan}


def source_of(*schedules):
    return ScheduleSource("test", {}, NUM_HOSTS, list(schedules))


def test_minimizer_reduces_to_the_culprit_steps():
    # "Fails" iff the plan still contains a crash AND a token drop.
    steps = [
        (10, "pause", 2),
        (10, "crash", 1),
        (10, "loss_burst", 0),
        (10, "token_drop", 0),
        (10, "resume", 2),
        (10, "heal", 3),
    ]
    report = explore(
        fails_when(lambda plan: {"crash", "token_drop"} <= kinds(plan)),
        source_of(Schedule(steps, 1)),
    )
    (case,) = report.failures
    assert case.steps == steps
    assert [action for _, action, _ in case.minimized_steps] == ["crash", "token_drop"]


def test_minimizer_keeps_steps_the_failure_depends_on():
    # Recover(1) is only valid after crash(1): a failure that needs the
    # recover event transitively needs the crash too.
    steps = [(10, "crash", 1), (10, "token_drop", 0), (10, "recover", 1)]
    report = explore(
        fails_when(lambda plan: "recover" in kinds(plan)), source_of(Schedule(steps, 1))
    )
    (case,) = report.failures
    assert [action for _, action, _ in case.minimized_steps] == ["crash", "recover"]


def test_without_minimize_a_failure_keeps_its_steps_and_passes_keep_none():
    steps = [(10, "crash", 1), (10, "token_drop", 0)]
    report = explore(
        fails_when(lambda plan: "crash" in kinds(plan)),
        source_of(Schedule(steps, 1), Schedule([(10, "token_drop", 0)], 1)),
        minimize=False,
    )
    failing, passing = report.cases
    assert failing.minimized_steps == steps and not failing.ok
    assert passing.minimized_steps is None and passing.ok


def test_the_same_plan_on_two_rings_runs_twice():
    runs = []

    def oracle(plan, seed, ring):
        runs.append((seed, ring))
        return FakeReport()

    steps = [(10, "token_drop", 0)]
    report = explore(
        oracle,
        source_of(
            Schedule(steps, 0, ring=0),
            Schedule(steps, 0, ring=1),
            Schedule(steps, 0, ring=1),
            Schedule(steps, 7, ring=1),
        ),
    )
    assert runs == [(0, 0), (0, 1), (7, 1)]
    assert report.deduped == 1
    assert [(case.seed, case.ring) for case in report.cases] == runs


def test_soak_cases_never_dedup(monkeypatch):
    monkeypatch.setattr("repro.faults.soak.check_plan", lambda *args, **kwargs: None)
    # No steps at all: six identical empty plans, each with its own seed.
    report = run_soak(plans=6, num_hosts=NUM_HOSTS, seed=2, max_steps=0)
    assert [case.steps for case in report.cases] == [[]] * 6
    assert len({case.seed for case in report.cases}) == 6
    assert (report.enumerated, report.ran, report.deduped) == (6, 6, 0)


def test_every_source_accounts_for_every_schedule(monkeypatch):
    monkeypatch.setattr(
        "repro.conformance.explorer.harvest_instants", lambda *args, **kwargs: [10, 20]
    )
    monkeypatch.setattr(
        "repro.conformance.explorer.run_differential", lambda *args, **kwargs: FakeReport()
    )
    monkeypatch.setattr(
        "repro.conformance.multiring.run_sharded", lambda *args, **kwargs: FakeReport()
    )
    monkeypatch.setattr("repro.faults.soak.check_plan", lambda *args, **kwargs: None)
    # 2 instants x 4 pids of token_drop: the drop count is 1 + pid % 2, so
    # pids 0/2 and 1/3 fold to the same plan; the budget takes 3 of 4.
    instants = explore_instants(Workload(), depth=1, budget=3, actions=("token_drop",))
    # 2 rings x (crash-recover, pause-resume, token-drop) x 2 anchors.
    grid = explore_grid(num_rings=2, budget=5)
    soak = run_soak(plans=4, num_hosts=NUM_HOSTS, seed=3)
    counts = {
        report.source: (report.enumerated, report.deduped, report.ran, report.skipped_budget)
        for report in (instants, grid, soak)
    }
    assert counts == {
        "instants": (8, 4, 3, 1),
        "ring-grid": (12, 0, 5, 7),
        "soak": (4, 0, 4, 0),
    }
    for report in (instants, grid, soak):
        assert report.enumerated == report.ran + report.deduped + report.skipped_budget
        assert len(report.cases) == report.ran


def test_coverage_merges_over_runs_and_is_absent_without_it():
    def oracle(plan, seed, ring):
        return FakeReport(coverage=CoverageReport({"coverage.token.sent": ring + 1}))

    steps = [(10, "token_drop", 0)]
    report = explore(oracle, source_of(Schedule(steps, 0, 0), Schedule(steps, 0, 1)))
    assert report.coverage.hit("coverage.token.sent") == 3
    assert explore(fails_when(lambda plan: False), source_of(Schedule(steps, 0))).coverage is None

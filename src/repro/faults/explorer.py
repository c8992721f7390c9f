"""One explorer: every fault-schedule search is one enumerate–dedup–run–shrink loop.

:func:`explore` takes an *oracle* — a callable ``(plan, seed, ring)``
whose report has ``ok``, ``to_dict()`` and an optional ``coverage`` —
and a :class:`ScheduleSource`.  It folds each schedule's abstract steps
through :func:`~repro.faults.generator.build_plan`, skips a plan already
run with the same seed on the same ring, stops at the run budget, merges
coverage and shrinks each failure with :func:`greedy_minimize`.  The
sources are the differential's harvested instants
(:mod:`repro.conformance.explorer`), the sharded oracle's per-ring
depth-1 grid (:mod:`repro.conformance.multiring`) and soak's seeded
random steps (:mod:`repro.faults.soak`); ``ring`` is the ring of a
sharded cluster the plan is armed against, which single-ring oracles
ignore.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.faults.generator import Step, build_plan, steps_from_lists
from repro.faults.plan import FaultPlan
from repro.obs.coverage import CoverageReport
from repro.util.jsonreport import JsonReport

Oracle = Callable[[FaultPlan, int, int], Any]


class Schedule(NamedTuple):
    """Abstract steps, the seed and ring to run them with, and a
    JSON-ready label placing them in their source."""

    steps: List[Step]
    seed: int
    ring: int = 0
    label: Any = None


@dataclass
class ScheduleSource:
    """The schedules of one search over ``num_hosts``-host plans
    (``racks`` as in ``build_plan``), and the ``params`` it was built from."""

    name: str
    params: Dict[str, Any]
    num_hosts: int
    schedules: List[Schedule]
    racks: int = 0


def greedy_minimize(items: List, still_fails: Callable[[List], bool]) -> List:
    """Greedy single-deletion shrinking of a failing item sequence.

    Deletes single items while ``still_fails`` holds for the shorter
    sequence (the shrink direction hypothesis uses); removing any one
    item of the result makes the failure disappear.
    """
    current = list(items)
    shrunk = True
    while shrunk:
        shrunk = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1 :]
            if still_fails(candidate):
                current = candidate
                shrunk = True
                break
    return current


@dataclass
class ExplorationCase:
    """A schedule that ran: the oracle's verdict and report, and for a
    failure its minimized steps."""

    label: Any
    seed: int
    ring: int
    steps: List[Step]
    events: int
    ok: bool
    report: Dict[str, Any]
    minimized_steps: Optional[List[Step]] = None

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExplorationCase":
        case = cls(**payload)
        case.steps = steps_from_lists(case.steps)
        if case.minimized_steps is not None:
            case.minimized_steps = steps_from_lists(case.minimized_steps)
        return case


@dataclass
class ExplorationReport(JsonReport):
    """Every case run; ``enumerated == ran + deduped + skipped_budget``."""

    source: str
    params: Dict[str, Any]
    budget: Optional[int] = None
    enumerated: int = 0
    deduped: int = 0
    ran: int = 0
    skipped_budget: int = 0
    cases: List[ExplorationCase] = field(default_factory=list)
    coverage: Optional[CoverageReport] = None

    @property
    def failures(self) -> List[ExplorationCase]:
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        coverage = None if self.coverage is None else self.coverage.to_dict()
        return {**asdict(self), "ok": self.ok, "coverage": coverage}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExplorationReport":
        report = cls(**{key: value for key, value in payload.items() if key != "ok"})
        report.cases = [ExplorationCase.from_dict(case) for case in report.cases]
        if report.coverage is not None:
            report.coverage = CoverageReport.from_dict(report.coverage)
        return report


def explore(
    oracle: Oracle,
    source: ScheduleSource,
    budget: Optional[int] = None,
    minimize: bool = True,
    progress: Optional[Callable[[ExplorationReport, ExplorationCase], None]] = None,
) -> ExplorationReport:
    """Run ``source``'s schedules through ``oracle``, at most ``budget``
    of them (all when ``None``), shrinking failures unless ``minimize``
    is off; ``progress(report, case)`` is called after each run."""
    report = ExplorationReport(
        source.name, dict(source.params), budget, enumerated=len(source.schedules)
    )

    def plan_of(steps: List[Step]) -> FaultPlan:
        return build_plan(steps, source.num_hosts, racks=source.racks)

    seen: set = set()
    for steps, seed, ring, label in source.schedules:
        plan = plan_of(steps)
        key = (json.dumps(plan.to_dicts(), sort_keys=True), seed, ring)
        if key in seen:
            report.deduped += 1
            continue
        seen.add(key)
        if budget is not None and report.ran >= budget:
            report.skipped_budget += 1
            continue
        result = oracle(plan, seed, ring)
        report.ran += 1
        coverage = getattr(result, "coverage", None)
        if coverage is not None:
            report.coverage = report.coverage.merge(coverage) if report.coverage else coverage
        case = ExplorationCase(
            label, seed, ring, list(steps), len(plan), result.ok, result.to_dict()
        )
        if not case.ok:
            case.minimized_steps = (
                greedy_minimize(steps, lambda shorter: not oracle(plan_of(shorter), seed, ring).ok)
                if minimize
                else list(steps)
            )
        report.cases.append(case)
        if progress is not None:
            progress(report, case)
    return report

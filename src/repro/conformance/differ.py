"""The differential oracle: do the variants deliver the same order?

The comparison is phase-aware, because the paper's equivalence claim is
about the *protocol*, not about fault timing:

* **Fault-free runs** must produce byte-identical per-participant label
  sequences across variants, end to end.
* **Faulty runs** are compared in the two regions where equality is
  sound: the *calm prefix* (deliveries after traffic starts, before the
  first membership transition — the fault has not bitten yet, so order
  must match exactly) and the *probe phase* (a fresh burst round on the
  reconverged ring — recovery is complete, so order must match exactly
  again).  In between, EVS legitimately allows delivery sets to differ
  across variants (each variant's membership transitions partition time
  differently), so the oracle checks each variant against the full EVS
  property suite there instead of against each other.

Any mismatch produces a structured :class:`ConformanceDivergence`
naming the first diverging delivery — participant, position, the two
labels — plus a trace excerpt per side, in the spirit of the
EvsChecker's debuggable virtual-synchrony reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.coverage import CoverageObserver, CoverageReport
from repro.conformance.variants import (
    PHASE_PROBE,
    VARIANT_NAMES,
    VariantRun,
    run_variant,
)
from repro.conformance.workload import Workload
from repro.faults.plan import FaultPlan
from repro.util.jsonreport import JsonReport

#: Events shown on each side of a divergence excerpt.
_EXCERPT_CONTEXT = 4


def _decode(label: bytes) -> str:
    return label.decode("latin-1")


@dataclass
class ConformanceDivergence:
    """One observed difference between two variants' behaviour.

    ``kind`` is ``order`` (same position, different label), ``missing``
    (one side's sequence ends early), ``evs`` (a variant violated an
    EVS property outright), or ``converge`` (a variant failed to reform
    a full ring after the fault plan quiesced).  ``seq`` is the position
    of the first diverging delivery within the compared region of
    ``pid``'s stream.
    """

    kind: str
    variant_a: str
    variant_b: str
    phase: str
    pid: Optional[int] = None
    seq: Optional[int] = None
    expected: Optional[str] = None
    actual: Optional[str] = None
    detail: str = ""
    excerpt_a: List[str] = field(default_factory=list)
    excerpt_b: List[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.kind == "order":
            head = (
                f"order divergence [{self.phase}] pid {self.pid} seq "
                f"{self.seq}: {self.variant_a} delivered "
                f"{self.expected!r}, {self.variant_b} delivered "
                f"{self.actual!r}"
            )
        elif self.kind == "missing":
            head = (
                f"missing delivery [{self.phase}] pid {self.pid} seq "
                f"{self.seq}: {self.detail}"
            )
        elif self.kind == "evs":
            head = f"EVS violation in {self.variant_b}: {self.detail}"
        else:
            head = f"{self.kind} divergence ({self.variant_b}): {self.detail}"
        lines = [head]
        if self.excerpt_a:
            lines.append(f"  {self.variant_a} trace around the divergence:")
            lines.extend(f"    {line}" for line in self.excerpt_a)
        if self.excerpt_b:
            lines.append(f"  {self.variant_b} trace around the divergence:")
            lines.extend(f"    {line}" for line in self.excerpt_b)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Every field but an unset position, label or excerpt."""
        return {
            key: value
            for key, value in asdict(self).items()
            if value is not None and value != []
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ConformanceDivergence":
        return cls(**payload)


def _excerpt(labels: Sequence[bytes], position: int) -> List[str]:
    start = max(0, position - _EXCERPT_CONTEXT)
    stop = min(len(labels), position + _EXCERPT_CONTEXT)
    lines = []
    if start > 0:
        lines.append(f"... {start} earlier deliveries ...")
    for index in range(start, stop):
        marker = ">>" if index == position else "  "
        lines.append(f"{marker} [{index}] {_decode(labels[index])}")
    if position >= len(labels):
        lines.append(f">> [{position}] (stream ends)")
    return lines


def compare_label_sequences(
    variant_a: str,
    variant_b: str,
    pid: int,
    labels_a: Sequence[bytes],
    labels_b: Sequence[bytes],
    phase: str,
    require_equal_length: bool = True,
) -> Optional[ConformanceDivergence]:
    """Compare two per-participant label sequences elementwise.

    Returns the first diverging delivery as a structured divergence, or
    ``None`` when the sequences agree.  With
    ``require_equal_length=False`` only the common prefix is compared
    (used for calm-prefix checks, where the fault may cut one variant's
    region shorter than the other's without any protocol difference).
    """
    common = min(len(labels_a), len(labels_b))
    for position in range(common):
        if labels_a[position] != labels_b[position]:
            return ConformanceDivergence(
                kind="order",
                variant_a=variant_a,
                variant_b=variant_b,
                phase=phase,
                pid=pid,
                seq=position,
                expected=_decode(labels_a[position]),
                actual=_decode(labels_b[position]),
                excerpt_a=_excerpt(labels_a, position),
                excerpt_b=_excerpt(labels_b, position),
            )
    if require_equal_length and len(labels_a) != len(labels_b):
        shorter = variant_b if len(labels_b) < len(labels_a) else variant_a
        return ConformanceDivergence(
            kind="missing",
            variant_a=variant_a,
            variant_b=variant_b,
            phase=phase,
            pid=pid,
            seq=common,
            detail=(
                f"{shorter} stops after {common} deliveries "
                f"({variant_a}: {len(labels_a)}, {variant_b}: {len(labels_b)})"
            ),
            excerpt_a=_excerpt(labels_a, common),
            excerpt_b=_excerpt(labels_b, common),
        )
    return None


def compare_runs(
    baseline: VariantRun, other: VariantRun, faulty: bool
) -> List[ConformanceDivergence]:
    """All divergences between one variant pair's recorded runs."""
    divergences: List[ConformanceDivergence] = []
    pids = sorted(set(baseline.streams) | set(other.streams))
    if not faulty:
        for pid in pids:
            found = compare_label_sequences(
                baseline.variant,
                other.variant,
                pid,
                baseline.labels(pid),
                other.labels(pid),
                phase="full",
            )
            if found is not None:
                divergences.append(found)
        return divergences
    for pid in pids:
        found = compare_label_sequences(
            baseline.variant,
            other.variant,
            pid,
            baseline.calm_prefix(pid),
            other.calm_prefix(pid),
            phase="calm",
            require_equal_length=False,
        )
        if found is not None:
            divergences.append(found)
    probe_pids = sorted(
        set(baseline.final_members) & set(other.final_members)
    )
    for pid in probe_pids:
        found = compare_label_sequences(
            baseline.variant,
            other.variant,
            pid,
            baseline.labels(pid, phase=PHASE_PROBE),
            other.labels(pid, phase=PHASE_PROBE),
            phase=PHASE_PROBE,
        )
        if found is not None:
            divergences.append(found)
    return divergences


def health_divergences(
    baseline: str,
    name: str,
    evs_texts: Mapping[str, Optional[str]],
    converged: bool,
    detail: str,
    phases: Tuple[str, str] = ("full", "quiesce"),
) -> List[ConformanceDivergence]:
    """The divergences run ``name`` earns on its own, whatever the oracle.

    One ``evs`` divergence per violated checker — ``evs_texts`` maps the
    offender's label (the run, or one ring of it) to its violation text,
    ``None`` when clean — and one ``converge`` divergence, carrying
    ``detail``, if the run never reconverged.  ``phases`` names the
    (evs, converge) phases for an oracle without a quiesce phase.
    """
    found = [
        ConformanceDivergence(
            kind="evs",
            variant_a=baseline,
            variant_b=label,
            phase=phases[0],
            detail=text,
        )
        for label, text in evs_texts.items()
        if text is not None
    ]
    if not converged:
        found.append(
            ConformanceDivergence(
                kind="converge",
                variant_a=baseline,
                variant_b=name,
                phase=phases[1],
                detail=detail,
            )
        )
    return found


@dataclass
class ConformanceReport(JsonReport):
    """The outcome of one differential run, JSON-round-trippable so a
    divergence found by the nightly job replays with one command."""

    workload: Workload
    plan_events: List[Dict[str, Any]]
    seed: int
    variants: Tuple[str, ...]
    divergences: List[ConformanceDivergence] = field(default_factory=list)
    coverage: Optional[CoverageReport] = None
    deliveries: Dict[str, int] = field(default_factory=dict)
    converged: Dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def plan(self) -> FaultPlan:
        return FaultPlan.from_dicts(self.plan_events)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload.to_dict(),
            "plan": self.plan_events,
            "seed": self.seed,
            "variants": list(self.variants),
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
            "coverage": self.coverage.to_dict() if self.coverage else None,
            "deliveries": dict(sorted(self.deliveries.items())),
            "converged": dict(sorted(self.converged.items())),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ConformanceReport":
        fields = {key: value for key, value in payload.items() if key != "ok"}
        report = cls(plan_events=fields.pop("plan", []), **fields)
        report.workload = Workload.from_dict(report.workload)
        report.variants = tuple(report.variants)
        report.divergences = [ConformanceDivergence.from_dict(d) for d in report.divergences]
        if report.coverage:
            report.coverage = CoverageReport.from_dict(report.coverage)
        return report


def run_differential(
    workload: Workload,
    plan: Optional[FaultPlan] = None,
    seed: int = 0,
    variants: Sequence[str] = VARIANT_NAMES,
    runs: Optional[Dict[str, VariantRun]] = None,
) -> ConformanceReport:
    """Run every variant and compare them against the first one.

    ``runs`` lets tests inject pre-recorded (or deliberately mutated)
    :class:`VariantRun` objects for a variant name instead of driving
    the simulator — the mutation fixtures use this to prove the oracle
    actually catches ordering bugs.
    """
    faulty = plan is not None and len(plan) > 0
    coverage = CoverageReport({})
    results: List[VariantRun] = []
    for variant in variants:
        if runs is not None and variant in runs:
            results.append(runs[variant])
            continue
        observer = CoverageObserver()
        results.append(
            run_variant(
                variant, workload, plan=plan, seed=seed, observer=observer
            )
        )
        coverage = coverage.merge(observer.report())
    report = ConformanceReport(
        workload=workload,
        plan_events=plan.to_dicts() if plan is not None else [],
        seed=seed,
        variants=tuple(variants),
        coverage=coverage,
        deliveries={run.variant: run.deliveries for run in results},
        converged={run.variant: run.converged for run in results},
    )
    baseline = results[0]
    for other in results[1:]:
        report.divergences.extend(compare_runs(baseline, other, faulty))
    for run in results:
        report.divergences.extend(
            health_divergences(
                baseline.variant,
                run.variant,
                {run.variant: run.evs_violation},
                run.converged,
                f"{run.variant} did not reconverge to a full ring "
                f"after the fault plan (final members "
                f"{list(run.final_members)})",
            )
        )
    return report

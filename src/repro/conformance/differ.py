"""The differential oracle: do the variants deliver the same order?

:func:`run_differential` is the one oracle entry point and
:class:`ConformanceReport` its one report.  Only the *substrate* that
produces each variant's label streams varies (:data:`SUBSTRATES`): the
protocol variants on the simulator, an N-ring sharded cluster, or a
serialized barrier script on the simulator and on real loopback nodes.

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
EvsChecker's debuggable virtual-synchrony reports.  What one run fails
on its own — EVS, convergence, a sharded run's vantages, a real run's
decoder — joins the cross-variant divergences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.conformance.multiring import ShardedRun, ShardedWorkload, run_sharded
from repro.conformance.realtime import RealtimeWorkload, run_real_serialized, run_sim_serialized
from repro.conformance.variants import (
    MSG,
    PHASE_PROBE,
    VARIANT_NAMES,
    ConformanceDivergence,
    VariantRun,
    run_variant,
)
from repro.conformance.workload import Workload
from repro.faults.plan import FaultPlan
from repro.obs.coverage import CoverageObserver, CoverageReport
from repro.obs.observer import ProtocolObserver
from repro.util.errors import ConfigurationError
from repro.util.jsonreport import JsonReport

AnyWorkload = Union[Workload, ShardedWorkload, RealtimeWorkload]

#: Events shown on each side of a divergence excerpt.
_EXCERPT_CONTEXT = 4


def _decode(label: bytes) -> str:
    return label.decode("latin-1")


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
) -> List[ConformanceDivergence]:
    """The divergences run ``name`` earns on its own, whatever the substrate.

    One ``evs`` divergence per violated checker — ``evs_texts`` maps the
    offender's label (the run, or one ring of it) to its violation text,
    ``None`` when clean — and one ``converge`` divergence, carrying
    ``detail``, if the run never reconverged.
    """
    found = [
        ConformanceDivergence(
            kind="evs",
            variant_a=baseline,
            variant_b=label,
            phase="full",
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
                phase="quiesce",
                detail=detail,
            )
        )
    return found


# ----------------------------------------------------------------------
# The substrates
# ----------------------------------------------------------------------


def _check_run_consistency(run: ShardedRun) -> List[ConformanceDivergence]:
    """Within one run: every vantage must observe the same per-group and
    merged streams (a merged item's label is ``group/payload``)."""
    views = [(f"group:{group}", per_pid) for group, per_pid in sorted(run.vantage_streams.items())]
    merged = {
        pid: [group.encode("ascii") + b"/" + payload for group, payload in stream]
        for pid, stream in run.merged_streams.items()
    }
    divergences: List[ConformanceDivergence] = []
    for phase, per_pid in views + [("merged", merged)]:
        pids = sorted(per_pid)
        for pid in pids[1:]:
            found = compare_label_sequences(
                f"{run.name}/pid{pids[0]}",
                f"{run.name}/pid{pid}",
                pid,
                per_pid[pids[0]],
                per_pid[pid],
                phase=phase,
            )
            if found is not None:
                divergences.append(found)
    return divergences


def _run_rings(
    variant: str,
    workload: ShardedWorkload,
    plan: Optional[FaultPlan],
    seed: int,
    observer: ProtocolObserver,
) -> VariantRun:
    """The ``rings-N`` substrate: one stream per group index, holding the
    canonical vantage's labels, so the fault-free cross-ring-count check
    is :func:`compare_runs`.  The streams carry no phase marks, so under
    a plan (armed against ring 0) nothing is compared across ring
    counts — fault timing legitimately changes delivery sets — and the
    run is judged on its own: every vantage alike, every ring EVS-clean,
    the cluster reconverged."""
    run = run_sharded(int(variant[len("rings-") :]), workload, seed, plan, observer=observer)
    per_ring_evs = {
        f"{variant}/ring{ring}": text for ring, text in sorted(run.evs_violations.items())
    }
    return VariantRun(
        variant=variant,
        streams={
            index: [(MSG, label) for label in run.group_streams[group]]
            for index, group in enumerate(sorted(run.group_streams))
        },
        evs_violation=None,  # judged per ring, among the run's divergences
        converged=run.converged,
        final_members=tuple(sorted(run.merged_streams)),
        traffic_base=0.0,
        sim_time=run.cluster.sim.now,
        crashed_pids=run.crashed_pids,
        divergences=_check_run_consistency(run)
        + health_divergences(variant, variant, per_ring_evs, True, ""),
    )


def _run_serialized(
    variant: str,
    workload: RealtimeWorkload,
    plan: Optional[FaultPlan],
    seed: int,
    observer: ProtocolObserver,
) -> VariantRun:
    """The ``sim`` / ``real`` substrates: the workload's barrier script,
    whose only fault is its scripted crash (``RealtimeWorkload.crash``)."""
    if plan is not None:
        raise ConfigurationError(
            f"variant {variant!r} cannot arm a fault plan; "
            "the realtime workload scripts its own crash"
        )
    run = run_sim_serialized if variant == "sim" else run_real_serialized
    return run(workload, observer)


class Substrate(NamedTuple):
    """What a variant name drives: the workload class it runs, and the
    function ``(variant, workload, plan, seed, observer)`` returning its
    :class:`VariantRun`."""

    workload: type
    run: Callable[..., VariantRun]


#: Variant name → substrate.  ``rings-N`` stands for every ring count N.
SUBSTRATES: Dict[str, Substrate] = {
    **{name: Substrate(Workload, run_variant) for name in VARIANT_NAMES},
    "rings-N": Substrate(ShardedWorkload, _run_rings),
    "sim": Substrate(RealtimeWorkload, _run_serialized),
    "real": Substrate(RealtimeWorkload, _run_serialized),
}

#: The variants a workload type runs when none are named.
DEFAULT_VARIANTS: Dict[type, Tuple[str, ...]] = {
    Workload: VARIANT_NAMES,
    ShardedWorkload: ("rings-1", "rings-2"),
    RealtimeWorkload: ("sim", "real"),
}


def substrate(variant: str) -> Substrate:
    """The substrate ``variant`` names; :class:`ConfigurationError` for
    an unknown name."""
    key = "rings-N" if re.fullmatch(r"rings-[1-9][0-9]*", variant) else variant
    if key not in SUBSTRATES:
        raise ConfigurationError(
            f"unknown variant {variant!r}; choose from {sorted(SUBSTRATES)}"
        )
    return SUBSTRATES[key]


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


@dataclass
class ConformanceReport(JsonReport):
    """The outcome of one differential run, JSON-round-trippable so a
    divergence found by the nightly job replays with one command."""

    workload: AnyWorkload
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
        report.variants = tuple(report.variants)
        report.workload = substrate(report.variants[0]).workload.from_dict(report.workload)
        report.divergences = [ConformanceDivergence.from_dict(d) for d in report.divergences]
        if report.coverage:
            report.coverage = CoverageReport.from_dict(report.coverage)
        return report


def run_differential(
    workload: AnyWorkload,
    plan: Optional[FaultPlan] = None,
    seed: int = 0,
    variants: Optional[Sequence[str]] = None,
    runs: Optional[Dict[str, VariantRun]] = None,
) -> ConformanceReport:
    """Run every variant and compare them against the first one.

    ``variants`` default to the workload type's (:data:`DEFAULT_VARIANTS`);
    each must drive that type (:data:`SUBSTRATES`), and at least two are
    compared.  A run that crashed a process — by ``plan`` or by the
    realtime workload's script — is compared in its calm prefix and
    probe phase only.

    ``runs`` lets tests inject pre-recorded (or deliberately mutated)
    :class:`VariantRun` objects for a variant name instead of driving
    its substrate — the mutation fixtures use this to prove the oracle
    actually catches ordering bugs.
    """
    if variants is None:
        variants = DEFAULT_VARIANTS[type(workload)]
    if len(variants) < 2:
        raise ConfigurationError(
            f"a differential compares at least two variants, got {tuple(variants)!r}"
        )
    drives = [substrate(variant) for variant in variants]
    for variant, drive in zip(variants, drives):
        if not isinstance(workload, drive.workload):
            raise ConfigurationError(
                f"variant {variant!r} drives a {drive.workload.__name__}, "
                f"not a {type(workload).__name__}"
            )
    coverage = CoverageReport({})
    results: List[VariantRun] = []
    for variant, drive in zip(variants, drives):
        if runs is not None and variant in runs:
            results.append(runs[variant])
            continue
        observer = CoverageObserver()
        results.append(drive.run(variant, workload, plan, seed, observer))
        coverage = coverage.merge(observer.report())
    faulty = (plan is not None and len(plan) > 0) or any(
        run.crashed_pids for run in results
    )
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
        report.divergences.extend(run.divergences)
    return report

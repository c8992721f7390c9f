"""Unit tests for the differential oracle's comparison logic.

These run on synthetic delivery streams (no simulator), so they pin the
comparison semantics directly: what counts as a divergence, what the
structured report names, and how phases partition the streams.
"""

import pytest

from repro.conformance.differ import (
    ConformanceDivergence,
    ConformanceReport,
    compare_label_sequences,
    compare_runs,
    run_differential,
)
from repro.conformance.multiring import ShardedWorkload
from repro.conformance.realtime import RealtimeWorkload
from repro.conformance.variants import (
    CONFIG,
    MARK,
    MSG,
    PHASE_MAIN,
    PHASE_PROBE,
    VariantRun,
)
from repro.conformance.workload import Workload, make_label, parse_label
from repro.faults.plan import PlanBuilder
from repro.obs.coverage import CoverageReport
from repro.util.errors import ConfigurationError


def make_run(variant, streams, **kwargs):
    defaults = dict(
        evs_violation=None,
        converged=True,
        final_members=(0, 1),
        traffic_base=0.08,
        sim_time=1.0,
    )
    defaults.update(kwargs)
    return VariantRun(variant=variant, streams=streams, **defaults)


def stream(*labels, phase=PHASE_MAIN):
    return [(MARK, phase)] + [(MSG, label) for label in labels]


# -- label codec -------------------------------------------------------


def test_label_round_trip():
    assert parse_label(make_label(3, 17)) == (3, 17)


def test_label_round_trip_with_padding():
    label = make_label(2, 5, pad_to=2000)
    assert len(label) == 2000
    assert parse_label(label) == (2, 5)


def test_foreign_payload_parses_to_none():
    assert parse_label(b"\x00\x01binary") is None


def test_workload_round_trips_through_json_dict():
    workload = Workload(num_hosts=5, rounds=3, burst_size=7,
                        oversized_index=None)
    assert Workload.from_dict(workload.to_dict()) == workload


# -- sequence comparison -----------------------------------------------


def test_identical_sequences_have_no_divergence():
    labels = [b"m0.0", b"m0.1", b"m1.0"]
    assert compare_label_sequences(
        "original", "accelerated", 2, labels, list(labels), phase="full"
    ) is None


def test_order_divergence_names_first_diverging_pid_and_seq():
    a = [b"m0.0", b"m0.1", b"m1.0", b"m1.1"]
    b = [b"m0.0", b"m1.0", b"m0.1", b"m1.1"]
    divergence = compare_label_sequences(
        "original", "accelerated", 3, a, b, phase="full"
    )
    assert divergence is not None
    assert divergence.kind == "order"
    assert divergence.pid == 3
    assert divergence.seq == 1  # first position where the orders differ
    assert divergence.expected == "m0.1"
    assert divergence.actual == "m1.0"
    text = divergence.describe()
    assert "pid 3" in text and "seq 1" in text
    # Trace excerpts mark the diverging position on both sides.
    assert any(">> [1] m0.1" in line for line in divergence.excerpt_a)
    assert any(">> [1] m1.0" in line for line in divergence.excerpt_b)


def test_missing_divergence_reports_the_shorter_side():
    a = [b"m0.0", b"m0.1", b"m0.2"]
    b = [b"m0.0", b"m0.1"]
    divergence = compare_label_sequences(
        "original", "accelerated", 0, a, b, phase="full"
    )
    assert divergence is not None
    assert divergence.kind == "missing"
    assert divergence.seq == 2
    assert "accelerated stops after 2" in divergence.detail


def test_prefix_only_comparison_allows_unequal_lengths():
    a = [b"m0.0", b"m0.1", b"m0.2"]
    b = [b"m0.0", b"m0.1"]
    assert compare_label_sequences(
        "original", "accelerated", 0, a, b, phase="calm",
        require_equal_length=False,
    ) is None


def test_divergence_round_trips_through_dict():
    divergence = compare_label_sequences(
        "original", "spread", 1, [b"m0.0"], [b"m1.0"], phase="probe"
    )
    clone = ConformanceDivergence.from_dict(divergence.to_dict())
    assert clone.kind == divergence.kind
    assert clone.pid == divergence.pid
    assert clone.seq == divergence.seq
    assert clone.expected == divergence.expected


# -- run comparison ----------------------------------------------------


def test_fault_free_runs_compare_full_streams():
    base = make_run("original", {0: stream(b"m0.0", b"m0.1")})
    same = make_run("accelerated", {0: stream(b"m0.0", b"m0.1")})
    assert compare_runs(base, same, faulty=False) == []
    swapped = make_run("accelerated", {0: stream(b"m0.1", b"m0.0")})
    found = compare_runs(base, swapped, faulty=False)
    assert len(found) == 1
    assert found[0].kind == "order"
    assert found[0].pid == 0


def test_faulty_runs_compare_calm_prefix_and_probe():
    def streams(calm, probe):
        return {
            0: [(MARK, PHASE_MAIN)]
            + [(MSG, label) for label in calm]
            + [(CONFIG, 99, True)]
            + [(MSG, b"churn")]
            + [(MARK, PHASE_PROBE)]
            + [(MSG, label) for label in probe]
        }

    base = make_run(
        "original", streams([b"m0.0", b"m0.1"], [b"m0.2", b"m1.0"])
    )
    # Same calm prefix and probe, different mid-run churn: conformant.
    other = make_run(
        "accelerated", streams([b"m0.0", b"m0.1"], [b"m0.2", b"m1.0"])
    )
    other.streams[0][4] = (MSG, b"different-churn")
    assert compare_runs(base, other, faulty=True) == []
    # A probe-phase swap is a divergence even though calm matches.
    swapped = make_run(
        "accelerated", streams([b"m0.0", b"m0.1"], [b"m1.0", b"m0.2"])
    )
    found = compare_runs(base, swapped, faulty=True)
    assert [d.phase for d in found] == [PHASE_PROBE]
    assert found[0].seq == 0


def test_calm_prefix_stops_at_membership_transition():
    run = make_run(
        "original",
        {
            0: [
                (CONFIG, 1, False),  # boot config, before the main mark
                (MARK, PHASE_MAIN),
                (MSG, b"m0.0"),
                (MSG, b"m0.1"),
                (CONFIG, 2, True),
                (MSG, b"m0.2"),
            ]
        },
    )
    assert run.calm_prefix(0) == [b"m0.0", b"m0.1"]
    assert run.labels(0) == [b"m0.0", b"m0.1", b"m0.2"]


def test_injected_mutated_run_is_caught_with_pid_and_seq():
    """The oracle must catch an artificial ordering bug (mutation
    fixture): swapping two deliveries in one variant's recorded run."""
    workload = Workload(num_hosts=2)
    streams_a = {
        0: stream(b"m0.0", b"m0.1", b"m1.0"),
        1: stream(b"m0.0", b"m0.1", b"m1.0"),
    }
    streams_b = {
        0: stream(b"m0.0", b"m0.1", b"m1.0"),
        1: stream(b"m0.0", b"m1.0", b"m0.1"),  # mutated: swapped
    }
    report = run_differential(
        workload,
        variants=("original", "accelerated"),
        runs={
            "original": make_run("original", streams_a),
            "accelerated": make_run("accelerated", streams_b),
        },
    )
    assert not report.ok
    (divergence,) = report.divergences
    assert (divergence.pid, divergence.seq) == (1, 1)
    assert divergence.kind == "order"


def test_evs_violation_surfaces_as_divergence():
    base = make_run("original", {0: stream(b"m0.0")})
    bad = make_run(
        "accelerated",
        {0: stream(b"m0.0")},
        evs_violation="participant 0 delivered (1, 2) twice",
    )
    report = run_differential(
        Workload(num_hosts=1),
        variants=("original", "accelerated"),
        runs={"original": base, "accelerated": bad},
    )
    assert not report.ok
    kinds = {d.kind for d in report.divergences}
    assert "evs" in kinds


def test_report_json_round_trip():
    base = make_run("original", {0: stream(b"m0.0")})
    other = make_run("accelerated", {0: stream(b"m1.0")})
    report = run_differential(
        Workload(num_hosts=1),
        seed=7,
        variants=("original", "accelerated"),
        runs={"original": base, "accelerated": other},
    )
    clone = ConformanceReport.from_json(report.to_json())
    assert clone.to_json() == report.to_json()
    assert clone.seed == 7
    assert not clone.ok


@pytest.mark.parametrize("workload, variants", [
    (Workload(num_hosts=2), ("original", "accelerated")),
    (ShardedWorkload(num_groups=2), ("rings-1", "rings-2")),
    (RealtimeWorkload(crash=True), ("sim", "real")),
], ids=["single-ring", "sharded", "realtime"])
def test_every_differential_report_round_trips_byte_equal(workload, variants):
    # The variant names pick the workload class a report reads back.
    report = run_differential(
        workload,
        variants=variants,
        runs={
            variants[0]: make_run(variants[0], {0: stream(b"m0.0", b"m0.1")}),
            variants[1]: make_run(variants[1], {0: stream(b"m0.1", b"m0.0")}),
        },
    )
    report.coverage = CoverageReport({"coverage.token.sent": 4})
    clone = ConformanceReport.from_json(report.to_json())
    assert clone.to_json() == report.to_json()
    assert clone.workload == workload and not clone.ok


@pytest.mark.parametrize("workload, variants, plan", [
    (Workload(), ("original", "rings-2"), None),
    (ShardedWorkload(), ("sim", "real"), None),
    (RealtimeWorkload(), ("accelerated", "original"), None),
    (RealtimeWorkload(), ("sim", "fast"), None),
    (RealtimeWorkload(), ("sim", "real"), PlanBuilder().crash(1, at=0.02).build()),
])
def test_a_variant_its_workload_cannot_drive_raises(workload, variants, plan):
    # A mismatched pair, an unknown name, or a plan for the serialized
    # pair (whose only fault is the workload's scripted crash).
    with pytest.raises(ConfigurationError):
        run_differential(workload, plan=plan, variants=variants)

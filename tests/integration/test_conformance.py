"""End-to-end conformance runs on the deterministic simulator.

These drive real clusters, so they use a deliberately small workload.
The module-scoped fixture runs each variant once and every test reads
from those recordings; only the fault-plan and explorer tests pay for
additional simulator runs.
"""

import copy

import pytest

from repro.conformance.differ import run_differential
from repro.conformance.explorer import explore_instants, harvest_instants
from repro.conformance.variants import MSG, VARIANT_NAMES, ConformanceTap, run_variant
from repro.conformance.workload import Workload, make_label
from repro.core.messages import DataMessage, DeliveryService
from repro.faults.generator import build_plan
from repro.runtime import ipc
from repro.sim.membership_driver import MembershipHost
from repro.spread.fragmentation import FRAGMENT_CHUNK
from repro.spread.frames import frames_prefix
from tests.unit.test_spread_daemon_logic import attach_member, deliver, frames, make_daemon

SEED = 3

SMALL = Workload(
    rounds=1,
    burst_size=8,
    burst_spacing=0.015,
    probe_burst=4,
    oversized_index=3,
    oversized_bytes=1500,
)


@pytest.fixture(scope="module")
def recorded_runs():
    return {
        variant: run_variant(variant, SMALL, seed=SEED)
        for variant in VARIANT_NAMES
    }


def test_fault_free_variants_deliver_identical_orders(recorded_runs):
    report = run_differential(
        SMALL, seed=SEED, variants=VARIANT_NAMES, runs=recorded_runs
    )
    assert report.ok, "\n".join(d.describe() for d in report.divergences)
    counts = set(report.deliveries.values())
    assert len(counts) == 1 and counts.pop() > 0


def test_spread_variant_fragments_the_oversized_label(recorded_runs):
    # The oversized label exceeds the 1300-byte chunk size, so the
    # spread pipeline must have fragmented and reassembled it; delivery
    # equality (checked above) plus presence here proves the round trip.
    run = recorded_runs["spread"]
    oversized = [
        label
        for stream in run.streams.values()
        for kind, *rest in stream
        if kind == MSG
        for label in [rest[0]]
        if len(label) >= SMALL.oversized_bytes
    ]
    # Every sender emits one oversized label; every pid delivers each.
    assert len(oversized) == SMALL.num_hosts ** 2


def test_mutated_recording_is_caught_naming_pid_and_seq(recorded_runs):
    """Acceptance: an artificially introduced ordering bug is caught
    with a ConformanceDivergence naming the first diverging (pid, seq)."""
    mutated = copy.deepcopy(recorded_runs["accelerated"])
    stream = mutated.streams[2]
    positions = [
        index for index, event in enumerate(stream) if event[0] == MSG
    ]
    first, second = positions[4], positions[5]
    stream[first], stream[second] = stream[second], stream[first]
    report = run_differential(
        SMALL,
        seed=SEED,
        variants=("original", "accelerated"),
        runs={
            "original": recorded_runs["original"],
            "accelerated": mutated,
        },
    )
    assert not report.ok
    divergence = report.divergences[0]
    assert divergence.kind == "order"
    assert divergence.pid == 2
    assert divergence.seq == 4
    assert divergence.expected is not None
    assert divergence.actual is not None


def test_loss_burst_plan_conforms_and_reaches_retransmission_branches():
    # A loss burst timed over the burst window forces droppped DATA
    # frames, so the retransmission request/answer branches must run —
    # and the variants must still agree.
    plan = build_plan([(10, "loss_burst", 3)], SMALL.num_hosts)
    report = run_differential(
        SMALL, plan=plan, seed=SEED, variants=("original", "accelerated")
    )
    assert report.ok, "\n".join(d.describe() for d in report.divergences)
    coverage = report.coverage
    assert coverage.hit("coverage.retransmit.requested") > 0
    assert coverage.hit("coverage.retransmit.answered") > 0
    assert coverage.hit("coverage.data.retransmission") > 0
    assert coverage.hit("coverage.flow.blocked") > 0


def test_crash_recover_plan_conforms_in_calm_and_probe_phases():
    plan = build_plan(
        [(10, "crash", 1), (100, "recover", 1)], SMALL.num_hosts
    )
    report = run_differential(
        SMALL, plan=plan, seed=SEED, variants=("original", "accelerated")
    )
    assert report.ok, "\n".join(d.describe() for d in report.divergences)
    assert all(report.converged.values())
    assert report.coverage.hit("coverage.recovery.completed") > 0


def test_fabric_workload_with_rack_loss_conforms():
    # The leaf–spine network and a correlated rack failure must not
    # break the cross-variant equivalence claim.
    fabric = Workload(
        rounds=1,
        burst_size=8,
        burst_spacing=0.015,
        probe_burst=4,
        oversized_index=3,
        oversized_bytes=1500,
        fabric_racks=2,
        impair="reorder",
    )
    plan = build_plan(
        [(10, "rack_power_loss", 1), (100, "recover", 2), (5, "recover", 3)],
        fabric.num_hosts,
        racks=2,
    )
    report = run_differential(
        fabric, plan=plan, seed=SEED, variants=("original", "accelerated")
    )
    assert report.ok, "\n".join(d.describe() for d in report.divergences)
    assert all(report.converged.values())


def test_harvested_instants_fall_inside_the_traffic_window():
    instants = harvest_instants(SMALL, seed=SEED, max_instants=3)
    assert 0 < len(instants) <= 3
    window_ms = SMALL.traffic_span * 1000.0
    assert all(0 < instant <= window_ms for instant in instants)


def test_small_exploration_finds_no_divergence_and_accounts_schedules():
    report = explore_instants(
        SMALL,
        depth=1,
        budget=2,
        seed=SEED,
        max_instants=1,
        pids=(0,),
        actions=("token_drop", "crash"),
    )
    assert report.ok
    assert report.enumerated == 2
    assert report.ran == 2
    assert report.enumerated == (
        report.ran + report.deduped + report.skipped_budget
    )
    assert report.coverage.hit("coverage.deliver.messages") > 0


# -- the spread variant orders and reads what a daemon does ---------------

#: The sender name the spread variant gives host 0's daemon.
H0 = frames_prefix("h0")
#: The groupcast header of every label the spread variant orders.
LABEL_HEADER = ipc.groupcast_header(["conformance"], DeliveryService.AGREED)
#: Groupcast frame sizes around the fragment fence: a frame of
#: ``FENCE`` bytes makes a one-frame container of exactly the chunk size.
FENCE = FRAGMENT_CHUNK - len(H0)
FRAME_SIZES = {
    "fence-1": FENCE - 1,
    "fence": FENCE,
    "fence+1": FENCE + 1,
    "1301-1350-band": 1320,
    "2000": 2000,
}


def _variant_payloads(monkeypatch, label_size):
    """What the spread variant submits for host 0's one label of
    ``label_size`` bytes: ``(payload, service)`` each, in order."""
    submitted = []
    original = MembershipHost.submit

    def recording(self, payload=b"", service=DeliveryService.AGREED, payload_size=None):
        if self.pid == 0:
            submitted.append((payload, service))
        original(self, payload, service, payload_size)

    monkeypatch.setattr(MembershipHost, "submit", recording)
    workload = Workload(
        num_hosts=2, rounds=1, burst_size=1, probe_burst=0,
        oversized_index=0, oversized_bytes=label_size,
    )
    run_variant("spread", workload, seed=SEED)
    return submitted


@pytest.mark.parametrize("frame_size", FRAME_SIZES.values(), ids=FRAME_SIZES.keys())
def test_spread_variant_submits_what_a_daemon_submits(monkeypatch, frame_size):
    """Around the fragment fence, inside the band where the chunk sizes
    of the daemon and of its mirror once differed, and well past it, the
    variant orders a label as the bytes a daemon submits for a client
    read of that one groupcast."""
    label = make_label(0, 0, pad_to=frame_size - ipc.FRAME_HEADER.size - len(LABEL_HEADER))
    daemon = make_daemon()
    session = attach_member(daemon, "h0")
    submitted = []
    daemon.node.submit = lambda payload, service: submitted.append((payload, service))
    daemon._handle_client_read(session, [(ipc.OP_GROUPCAST, LABEL_HEADER + label)])
    assert (len(submitted) > 1) == (frame_size > FENCE)
    assert _variant_payloads(monkeypatch, len(label)) == submitted


def _label_frame(label, service=DeliveryService.AGREED):
    return ipc.pack_groupcast(["conformance"], service, label)


#: Containers with frames a daemon skips or refuses.
ODD_CONTAINERS = {
    "non-groupcast-frame": H0 + _label_frame(b"m0.0")
    + ipc.pack_group_op(ipc.OP_JOIN, "conformance") + _label_frame(b"m0.1"),
    "other-service": H0 + _label_frame(b"m0.0")
    + _label_frame(b"m0.1", DeliveryService.SAFE) + _label_frame(b"m0.2"),
    "empty-groupcast": H0 + _label_frame(b"m0.0")
    + ipc.pack_frame(ipc.OP_GROUPCAST, b"") + _label_frame(b"m0.1"),
    "non-utf8-group": H0 + _label_frame(b"m0.0")
    + ipc.pack_frame(ipc.OP_GROUPCAST, bytes([DeliveryService.AGREED, 1, 0, 1, 0xFF]) + b"x")
    + _label_frame(b"m0.1"),
    "truncated-frame": H0 + _label_frame(b"m0.0") + _label_frame(b"m0.1")[:-3],
    "truncated-header": H0 + _label_frame(b"m0.0") + _label_frame(b"m0.1")[:3],
}


@pytest.mark.parametrize("container", ODD_CONTAINERS.values(), ids=ODD_CONTAINERS.keys())
def test_the_tap_records_what_a_daemon_hands_a_member(container):
    message = DataMessage(
        seq=1, pid=1, round=1, service=DeliveryService.AGREED, payload=container
    )
    tap = ConformanceTap(decode=True)
    tap.on_deliver_batch(0, [message], 1, 0)
    daemon = make_daemon()
    member = attach_member(daemon, "m#0", groups=["conformance"])
    deliver(daemon, message, config_id=1)
    forwarded = [
        ipc.unpack_groupcast(frame[ipc.FRAME_HEADER.size :])[2] for frame in frames(member)
    ]
    assert [event[1] for event in tap.streams[0] if event[0] == MSG] == forwarded

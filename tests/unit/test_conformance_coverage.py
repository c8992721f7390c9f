"""Unit tests for protocol-branch coverage counters."""

from types import SimpleNamespace

from repro.obs.coverage import (
    CORE_BRANCHES,
    CoverageObserver,
    CoverageReport,
)
from repro.core.token import RegularToken


def decision(num_to_send, queued, global_headroom, post_token=0):
    return SimpleNamespace(
        num_to_send=num_to_send,
        pre_token=num_to_send - post_token,
        post_token=post_token,
        queued=queued,
        global_headroom=global_headroom,
    )


def test_token_branches():
    observer = CoverageObserver()
    plain = RegularToken(ring_id=1)
    with_rtr = RegularToken(ring_id=1, rtr=[4, 5])
    lowered = RegularToken(ring_id=1, aru_lowered_by=2)
    observer.on_token_received(0, plain)
    observer.on_token_received(0, with_rtr)
    observer.on_token_received(0, lowered)
    observer.on_token_sent(0, plain)
    report = observer.report()
    assert report.hit("coverage.token.received") == 3
    assert report.hit("coverage.token.with_rtr") == 1
    assert report.hit("coverage.token.aru_lowered") == 1
    assert report.hit("coverage.token.sent") == 1


def test_retransmission_branches_are_distinct_from_new_multicasts():
    observer = CoverageObserver()
    observer.on_multicast(0, None, retransmission=False)
    observer.on_multicast(0, None, retransmission=True)
    observer.on_retransmit_requested(1, seq=7)
    report = observer.report()
    assert report.hit("coverage.data.multicast") == 1
    assert report.hit("coverage.data.retransmission") == 1
    assert report.hit("coverage.retransmit.answered") == 1
    assert report.hit("coverage.retransmit.requested") == 1


def test_flow_control_branches():
    observer = CoverageObserver()
    # Unconstrained: everything queued goes out.
    observer.on_flow_control(0, decision(5, queued=5, global_headroom=10), 5)
    # Blocked: windows held messages back.
    observer.on_flow_control(0, decision(3, queued=9, global_headroom=10), 3)
    # Saturated: no global headroom at all while messages queued.
    observer.on_flow_control(0, decision(0, queued=4, global_headroom=0), 8)
    # Accelerated split: some messages sent after the token.
    observer.on_flow_control(0, decision(4, queued=4, global_headroom=9,
                                         post_token=2), 4)
    report = observer.report()
    assert report.hit("coverage.flow.rounds") == 4
    assert report.hit("coverage.flow.blocked") == 2  # blocked + saturated
    assert report.hit("coverage.flow.saturated") == 1
    assert report.hit("coverage.flow.post_token") == 1


def test_membership_transitions_are_counted_per_edge():
    observer = CoverageObserver()
    observer.on_membership_event(
        0, "state_change", detail={"from": "gather", "to": "commit"}
    )
    observer.on_membership_event(
        0, "state_change", detail={"from": "commit", "to": "recover"}
    )
    observer.on_membership_event(0, "ring_installed", detail={"ring_id": 4})
    observer.on_membership_event(0, "token_loss", detail={"ring_id": 4})
    report = observer.report()
    assert report.hit("coverage.membership.transition.gather->commit") == 1
    assert report.hit("coverage.membership.transition.commit->recover") == 1
    assert report.hit("coverage.membership.ring_installed") == 1
    assert report.hit("coverage.membership.token_loss") == 1


def test_fault_and_recovery_hooks():
    observer = CoverageObserver()
    observer.on_fault("crash", detail={"pid": 1})
    observer.on_fault("token_drop", detail={"count": 2})
    observer.on_membership_event(0, "recovery_started")
    observer.on_membership_event(0, "recovery_retry", detail={"attempt": 1})
    observer.on_membership_event(0, "recovery_aborted", detail={"attempts": 2})
    observer.on_membership_event(0, "recovery_completed", detail={"attempts": 1})
    report = observer.report()
    assert report.hit("coverage.fault.crash") == 1
    assert report.hit("coverage.fault.token_drop") == 1
    assert report.hit("coverage.recovery.started") == 1
    assert report.hit("coverage.recovery.retry") == 1
    assert report.hit("coverage.recovery.aborted") == 1
    assert report.hit("coverage.recovery.completed") == 1


def test_unhit_lists_core_branches_never_reached():
    observer = CoverageObserver()
    report = observer.report()
    assert report.unhit == list(CORE_BRANCHES)
    observer.on_retransmit_requested(0, seq=1)
    report = observer.report()
    assert "coverage.retransmit.requested" not in report.unhit
    assert "coverage.retransmit.answered" in report.unhit


def test_merge_adds_counts():
    first, second = CoverageObserver(), CoverageObserver()
    first.on_token_sent(0, RegularToken(ring_id=1))
    second.on_token_sent(0, RegularToken(ring_id=1))
    second.on_multicast(0, None, retransmission=True)
    merged = first.report().merge(second.report())
    assert merged.hit("coverage.token.sent") == 2
    assert merged.hit("coverage.retransmit.answered") == 1


def test_report_round_trips_and_formats():
    observer = CoverageObserver()
    observer.on_token_sent(0, RegularToken(ring_id=1))
    report = observer.report()
    clone = CoverageReport.from_dict(report.to_dict())
    assert clone.hits == report.hits
    text = report.format()
    assert "coverage.token.sent" in text
    assert "not exercised:" in text

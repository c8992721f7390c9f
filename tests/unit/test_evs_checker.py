"""Unit tests for the EVS trace checker — it must catch violations."""

import pytest

from repro.core.messages import DeliveryService
from repro.evs.checker import EvsChecker, EvsViolation
from repro.evs.configuration import Configuration
from repro.evs.events import ConfigDelivery, MessageDelivery


def delivery(seq, sender=0, service=DeliveryService.AGREED, config_id=1, ring=None):
    return MessageDelivery(
        seq=seq,
        sender=sender,
        service=service,
        config_id=config_id,
        origin_ring=ring if ring is not None else config_id,
    )


def config_event(config_id=1, members=(0, 1), transitional=False, closes=None):
    if transitional:
        configuration = Configuration.transitional_of(config_id, members, closes=closes)
    else:
        configuration = Configuration.regular(config_id, members)
    return ConfigDelivery(configuration)


def test_clean_trace_passes():
    checker = EvsChecker()
    for pid in (0, 1):
        checker.record(pid, config_event())
        for seq in (1, 2, 3):
            checker.record(pid, delivery(seq))
    checker.check()


def test_violation_is_check_as_a_verdict():
    clean, broken = EvsChecker(), EvsChecker()
    for checker in (clean, broken):
        checker.record(0, delivery(1))
    broken.record(0, delivery(1))
    assert clean.violation() is None
    text = broken.violation()
    assert "twice" in text
    with pytest.raises(EvsViolation) as raised:
        broken.check()
    assert text == str(raised.value)


def test_violation_passes_the_crashed_waiver_through():
    checker = EvsChecker()
    for pid in (0, 1):
        checker.record(pid, config_event())
    checker.record(0, delivery(1, service=DeliveryService.SAFE))
    assert "safe" in checker.violation().lower()
    assert checker.violation(crashed={1}) is None


def test_duplicate_delivery_detected():
    checker = EvsChecker()
    checker.record(0, delivery(1))
    checker.record(0, delivery(1))
    with pytest.raises(EvsViolation, match="twice"):
        checker.check()


def test_order_violation_detected():
    checker = EvsChecker()
    checker.record(0, delivery(2))
    checker.record(0, delivery(1))
    with pytest.raises(EvsViolation, match="order"):
        checker.check()


def test_order_tracked_per_ring():
    checker = EvsChecker()
    checker.record(0, delivery(5, ring=1))
    checker.record(0, delivery(1, ring=2))  # new ring restarts seqs: fine
    checker.check()


def test_configuration_disagreement_detected():
    checker = EvsChecker()
    checker.record(0, config_event(members=(0, 1)))
    checker.record(1, config_event(members=(0, 1, 2)))
    with pytest.raises(EvsViolation, match="different members"):
        checker.check()


def test_safe_delivery_requires_all_members():
    checker = EvsChecker()
    for pid in (0, 1):
        checker.record(pid, config_event(members=(0, 1)))
    checker.record(0, delivery(1, service=DeliveryService.SAFE))
    with pytest.raises(EvsViolation, match="safe message"):
        checker.check()


def test_safe_delivery_excuses_crashed_members():
    checker = EvsChecker()
    for pid in (0, 1):
        checker.record(pid, config_event(members=(0, 1)))
    checker.record(0, delivery(1, service=DeliveryService.SAFE))
    checker.check(crashed={1})


def test_safe_delivered_by_all_passes():
    checker = EvsChecker()
    for pid in (0, 1):
        checker.record(pid, config_event(members=(0, 1)))
        checker.record(pid, delivery(1, service=DeliveryService.SAFE))
    checker.check()


def test_safe_in_transitional_requires_only_transitional_members():
    checker = EvsChecker()
    # regular config had members {0,1,2}; transitional shrank to {0,1}
    for pid in (0, 1):
        checker.record(pid, config_event(config_id=1, members=(0, 1, 2)))
        checker.record(pid, config_event(config_id=99, members=(0, 1),
                                         transitional=True, closes=1))
        checker.record(pid, delivery(5, service=DeliveryService.SAFE, config_id=1))
    # member 2 (partitioned, not crashed) never delivered seq 5 — allowed,
    # because the delivery happened under the transitional configuration.
    checker.check()


def test_virtual_synchrony_violation_detected():
    checker = EvsChecker()
    for pid in (0, 1):
        checker.record(pid, config_event(config_id=1, members=(0, 1)))
    checker.record(0, delivery(1))
    checker.record(0, delivery(2))
    checker.record(1, delivery(1))  # pid 1 missed seq 2
    for pid in (0, 1):
        checker.record(pid, config_event(config_id=77, members=(0, 1),
                                         transitional=True, closes=1))
    with pytest.raises(EvsViolation, match="virtual synchrony"):
        checker.check()


def test_virtual_synchrony_only_compares_closed_ring():
    checker = EvsChecker()
    # pid 0 arrives from ring 10 with prior history; pid 1 from ring 20.
    checker.record(0, config_event(config_id=10, members=(0,)))
    checker.record(0, delivery(1, ring=10, config_id=10))
    checker.record(1, config_event(config_id=20, members=(1,)))
    # both join ring 30, then transition out of it together
    for pid in (0, 1):
        checker.record(pid, config_event(config_id=30, members=(0, 1)))
        checker.record(pid, delivery(1, ring=30, config_id=30))
        checker.record(pid, config_event(config_id=88, members=(0, 1),
                                         transitional=True, closes=30))
    checker.check()


def test_virtual_synchrony_violation_message_is_debuggable():
    """The violation message must name the diverging pids and config,
    list the exact diverging message keys per side, and include a trace
    excerpt around each side's transitional delivery."""
    checker = EvsChecker()
    for pid in (0, 1):
        checker.record(pid, config_event(config_id=1, members=(0, 1)))
    checker.record(0, delivery(1))
    checker.record(0, delivery(2, service=DeliveryService.SAFE))
    checker.record(1, delivery(1))  # pid 1 missed seq 2
    for pid in (0, 1):
        checker.record(pid, config_event(config_id=77, members=(0, 1),
                                         transitional=True, closes=1))
    with pytest.raises(EvsViolation) as excinfo:
        checker.check_virtual_synchrony()
    text = str(excinfo.value)
    assert "transitional config 77" in text
    assert "members: [0, 1]" in text
    assert "pids 0 and 1 disagree" in text
    assert "delivered only by 0: [(1, 2)]" in text
    assert "delivered only by 1: []" in text
    # Trace excerpts for both sides, ending at the transitional install.
    assert "trace excerpt, pid 0:" in text
    assert "trace excerpt, pid 1:" in text
    assert "deliver (1, 2) safe from 0" in text
    assert text.count("install transitional config 77 members=[0, 1]") == 2


def test_virtual_synchrony_message_truncates_long_divergence():
    checker = EvsChecker()
    for pid in (0, 1):
        checker.record(pid, config_event(config_id=1, members=(0, 1)))
    for seq in range(1, 16):
        checker.record(0, delivery(seq))
    for pid in (0, 1):
        checker.record(pid, config_event(config_id=77, members=(0, 1),
                                         transitional=True, closes=1))
    with pytest.raises(EvsViolation) as excinfo:
        checker.check_virtual_synchrony()
    text = str(excinfo.value)
    assert "(+5 more)" in text  # 15 diverging keys, 10 shown
    assert "... " in text  # long trace elided, not dumped wholesale


def test_self_delivery_violation():
    checker = EvsChecker()
    checker.record_submission(0, 2)
    checker.record(0, delivery(1, sender=0))
    with pytest.raises(EvsViolation, match="its own"):
        checker.check()


def test_self_delivery_excuses_crashed():
    checker = EvsChecker()
    checker.record_submission(0, 2)
    checker.check(crashed={0})


# -- incarnation-aware self-delivery (record_crash / record_recovery) --


def test_self_delivery_waives_pre_crash_submissions_after_recovery():
    """A recovered pid answers only for its new incarnation: submissions
    in flight when it crashed must not be counted against it."""
    checker = EvsChecker()
    checker.record_submission(0, 3)  # 3 in flight, never delivered
    checker.record_crash(0)
    checker.record_recovery(0)
    # New incarnation submits 1 and delivers it: satisfied.
    checker.record_submission(0, 1)
    checker.record(0, delivery(1, sender=0))
    checker.check(crashed={0})


def test_self_delivery_enforced_for_recovered_incarnation():
    """Post-recovery submissions ARE enforced even though the pid is in
    the ``crashed`` waiver set (it crashed at some point)."""
    checker = EvsChecker()
    checker.record_submission(0, 2)
    checker.record_crash(0)
    checker.record_recovery(0)
    checker.record_submission(0, 2)  # new incarnation, never delivered
    with pytest.raises(EvsViolation, match="current incarnation"):
        checker.check(crashed={0})


def test_self_delivery_waives_currently_crashed_tracked_pid():
    checker = EvsChecker()
    checker.record_submission(0, 2)
    checker.record(0, delivery(1, sender=0))
    checker.record_crash(0)  # crashed with one submission undelivered
    checker.check(crashed={0})


def test_self_delivery_crash_snapshots_own_deliveries():
    """Pre-crash own-deliveries must not satisfy post-recovery
    submissions — the baseline is snapshotted at crash time."""
    checker = EvsChecker()
    checker.record_submission(0, 2)
    checker.record(0, delivery(1, sender=0))
    checker.record(0, delivery(2, sender=0))
    checker.record_crash(0)
    checker.record_recovery(0)
    checker.record_submission(0, 1)
    with pytest.raises(EvsViolation, match="submitted 1 messages"):
        checker.check(crashed={0})
    # Delivering the new incarnation's message clears the violation.
    checker.record(0, delivery(3, sender=0))
    checker.check(crashed={0})


def test_self_delivery_second_crash_resnapshots():
    checker = EvsChecker()
    checker.record_submission(0, 1)
    checker.record_crash(0)
    checker.record_recovery(0)
    checker.record_submission(0, 1)  # undelivered when the 2nd crash hits
    checker.record_crash(0)
    checker.record_recovery(0)
    checker.check(crashed={0})  # nothing submitted since last crash
    checker.record_submission(0, 1)
    with pytest.raises(EvsViolation, match="current incarnation"):
        checker.check(crashed={0})


def test_submissions_stay_cumulative_across_incarnations():
    """Reports (and goldens) read ``submissions`` — crash tracking must
    not mutate the public counts."""
    checker = EvsChecker()
    checker.record_submission(0, 3)
    checker.record_crash(0)
    checker.record_recovery(0)
    checker.record_submission(0, 2)
    assert checker.submissions[0] == 5

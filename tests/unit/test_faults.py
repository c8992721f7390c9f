"""Unit tests for fault events and plans (repro.faults)."""

import pytest

from repro.faults import (
    Crash,
    CrashAfterAppend,
    FaultPlan,
    Heal,
    LossBurst,
    Partition,
    Pause,
    PlanBuilder,
    Recover,
    Resume,
    TokenDrop,
    event_from_dict,
)
from repro.util.errors import FaultError, ReproError


class TestEvents:
    def test_fault_error_is_repro_error(self):
        assert issubclass(FaultError, ReproError)

    def test_event_dict_round_trip(self):
        events = [
            Crash(at=0.1, pid=2),
            Recover(at=0.2, pid=2),
            Partition(at=0.3, groups=(frozenset({0, 1}), frozenset({2, 3}))),
            Heal(at=0.4),
            TokenDrop(at=0.5, count=3),
            LossBurst(at=0.6, rate=0.2, duration=0.05, pids=frozenset({1, 2})),
            LossBurst(at=0.6, rate=0.2, duration=0.05, pids=None),
            Pause(at=0.7, pid=1),
            Resume(at=0.8, pid=1),
            CrashAfterAppend(at=0.9, pid=3),
            CrashAfterAppend(at=0.9, pid=3, only_transactions=True),
        ]
        for event in events:
            assert event_from_dict(event.to_dict()) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            event_from_dict({"kind": "meteor", "at": 0.0})

    def test_partition_groups_normalized(self):
        a = Partition(at=0.0, groups=(frozenset({2, 3}), frozenset({0, 1})))
        b = Partition(at=0.0, groups=(frozenset({0, 1}), frozenset({2, 3})))
        assert a == b

    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            Crash(at=-0.1, pid=0).validate()

    def test_token_drop_count_validated(self):
        with pytest.raises(FaultError):
            TokenDrop(at=0.0, count=0).validate()

    def test_loss_burst_rate_and_duration_validated(self):
        with pytest.raises(FaultError):
            LossBurst(at=0.0, rate=0.0, duration=0.1).validate()
        with pytest.raises(FaultError):
            LossBurst(at=0.0, rate=1.5, duration=0.1).validate()
        with pytest.raises(FaultError):
            LossBurst(at=0.0, rate=0.5, duration=0.0).validate()

    def test_overlapping_partition_groups_rejected(self):
        with pytest.raises(FaultError):
            Partition(
                at=0.0, groups=(frozenset({0, 1}), frozenset({1, 2}))
            ).validate()


class TestPlanValidation:
    def test_events_sorted_by_time(self):
        plan = FaultPlan([Heal(at=0.5), Crash(at=0.1, pid=0), Recover(at=0.3, pid=0)])
        assert [event.at for event in plan] == [0.1, 0.3, 0.5]

    def test_recover_before_crash_rejected(self):
        with pytest.raises(FaultError, match="recover-before-crash"):
            FaultPlan([Recover(at=0.1, pid=0)]).validate()

    def test_double_crash_rejected(self):
        with pytest.raises(FaultError, match="already crashed"):
            FaultPlan([Crash(at=0.1, pid=0), Crash(at=0.2, pid=0)]).validate()

    def test_crash_after_append_is_a_crash(self):
        plan = FaultPlan(
            [CrashAfterAppend(at=0.1, pid=2, only_transactions=True), Recover(at=0.3, pid=2)]
        ).validate()
        assert plan.crashed_pids() == {2}
        with pytest.raises(FaultError, match="already crashed"):
            FaultPlan([CrashAfterAppend(at=0.1, pid=2), Crash(at=0.2, pid=2)]).validate()
        with pytest.raises(FaultError, match="already crashed"):
            FaultPlan([Crash(at=0.1, pid=2), CrashAfterAppend(at=0.2, pid=2)]).validate()

    def test_crash_recover_crash_allowed(self):
        FaultPlan(
            [Crash(at=0.1, pid=0), Recover(at=0.2, pid=0), Crash(at=0.3, pid=0)]
        ).validate()

    def test_overlapping_partitions_rejected(self):
        plan = FaultPlan(
            [
                Partition(at=0.1, groups=(frozenset({0}), frozenset({1}))),
                Partition(at=0.2, groups=(frozenset({0, 1}), frozenset({2}))),
            ]
        )
        with pytest.raises(FaultError, match="already\\s+active"):
            plan.validate()

    def test_partition_heal_partition_allowed(self):
        FaultPlan(
            [
                Partition(at=0.1, groups=(frozenset({0}), frozenset({1}))),
                Heal(at=0.2),
                Partition(at=0.3, groups=(frozenset({0, 1}), frozenset({2}))),
            ]
        ).validate()

    def test_resume_without_pause_rejected(self):
        with pytest.raises(FaultError, match="not paused"):
            FaultPlan([Resume(at=0.1, pid=0)]).validate()

    def test_pause_of_crashed_pid_rejected(self):
        with pytest.raises(FaultError, match="crashed"):
            FaultPlan([Crash(at=0.1, pid=0), Pause(at=0.2, pid=0)]).validate()

    def test_pid_range_checked_when_num_hosts_given(self):
        with pytest.raises(FaultError, match="out of range"):
            FaultPlan([Crash(at=0.1, pid=9)]).validate(num_hosts=4)

    def test_crashed_pids_and_horizon(self):
        plan = FaultPlan(
            [
                Crash(at=0.1, pid=0),
                LossBurst(at=0.2, rate=0.5, duration=0.3, pids=frozenset({1})),
            ]
        )
        assert plan.crashed_pids() == {0}
        assert plan.horizon == pytest.approx(0.5)
        assert plan.pids() == {0, 1}


class TestBuilderAndJson:
    def plan(self):
        return (
            PlanBuilder()
            .crash(1, at=0.02)
            .partition({0, 2}, {3}, at=0.05)
            .token_drop(at=0.06, count=2)
            .loss_burst(at=0.07, duration=0.01, rate=0.3, pids={0})
            .heal(at=0.1)
            .recover(1, at=0.12)
            .pause(2, at=0.15)
            .resume(2, at=0.17)
            .build(num_hosts=4)
        )

    def test_builder_builds_valid_plan(self):
        plan = self.plan()
        assert len(plan) == 8
        assert plan.events[0] == Crash(at=0.02, pid=1)

    def test_json_round_trip_exact(self):
        plan = self.plan()
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.to_json() == plan.to_json()

    def test_crash_after_append_json_round_trip(self):
        plan = (
            PlanBuilder()
            .crash_after_append(2, at=0.05, only_transactions=True)
            .recover(2, at=0.45)
            .build(num_hosts=4)
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.events[0] == CrashAfterAppend(at=0.05, pid=2, only_transactions=True)
        assert '"kind": "crash_after_append"' in plan.to_json()

    def test_bad_json_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_json("{not json")
        with pytest.raises(FaultError):
            FaultPlan.from_json('{"kind": "crash"}')  # not a list

    def test_builder_validates_on_build(self):
        with pytest.raises(FaultError):
            PlanBuilder().recover(0, at=0.1).build()

"""Unit tests for the self-healing recovery retry/backoff machine.

A recovery whose flood/status rounds go unanswered no longer tears down
on the first deadline: it retries with exponential backoff and jitter,
suspects peers that stay silent across rounds, and only when the retry
budget is exhausted aborts back to Gather with the suspects
pre-condemned.  These tests drive a controller into a recovery that can
never finalize (the peers never answer) and exercise that machinery
directly.
"""

import pytest

from repro.membership.controller import (
    MemberState,
    MembershipController,
    TIMER_RECOVERY,
)
from repro.core.events import SendControl, SetTimer
from repro.membership.messages import CommitToken, JoinMessage, MemberInfo
from repro.membership.params import MembershipTimeouts
from repro.membership.ring_id import encode_ring_id
from repro.obs.observer import MetricsObserver

MEMBERS = (0, 1, 2)
NEW_RING = encode_ring_id(1, 0)


def timeouts(**overrides) -> MembershipTimeouts:
    defaults = dict(recovery_retries=2, recovery_jitter=0.0)
    defaults.update(overrides)
    return MembershipTimeouts(**defaults)


def stuck_recovering_controller(timeouts_, observer=None) -> MembershipController:
    """A controller in Recovery for ring {0, 1, 2} whose old-ring peers
    never answer the status exchange, so it can only retry."""
    controller = MembershipController(pid=0, timeouts=timeouts_, observer=observer)
    controller.start()
    for peer in (1, 2):
        controller.on_message(
            JoinMessage(
                sender=peer,
                proc_set=frozenset(MEMBERS),
                fail_set=frozenset(),
                ring_seq=0,
            )
        )
    token = CommitToken(ring_id=NEW_RING, members=MEMBERS)
    for peer in (1, 2):
        # Same old ring as pid 0, so all three are old-ring survivors
        # whose completion pid 0 must wait for.
        token.infos[peer] = MemberInfo(
            old_ring_id=encode_ring_id(0, 0), old_aru=0, high_seq=0
        )
    controller.on_message(token)
    assert controller.state is MemberState.RECOVER
    return controller


def recovery_timer_delays(effects):
    return [
        effect.delay
        for effect in effects
        if isinstance(effect, SetTimer) and effect.name == TIMER_RECOVERY
    ]


def sent_joins(effects):
    return [
        effect.message
        for effect in effects
        if isinstance(effect, SendControl)
        and isinstance(effect.message, JoinMessage)
    ]


# -- backoff schedule ---------------------------------------------------


def test_backoff_schedule_is_exponential_and_capped_without_jitter():
    t = timeouts(recovery_timeout=0.01, recovery_backoff=2.0,
                 recovery_timeout_cap=0.05)
    controller = MembershipController(pid=0, timeouts=t)
    delays = [controller._recovery_backoff_delay(a) for a in range(5)]
    assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]  # capped from attempt 3


def test_backoff_cap_defaults_to_eight_times_the_base_interval():
    t = timeouts(recovery_timeout=0.01)
    controller = MembershipController(pid=0, timeouts=t)
    assert controller._recovery_backoff_delay(20) == pytest.approx(0.08)


def test_jitter_stays_within_the_configured_band():
    t = timeouts(recovery_timeout=0.01, recovery_backoff=2.0,
                 recovery_jitter=0.2)
    controller = MembershipController(pid=0, timeouts=t)
    for attempt in range(4):
        nominal = min(0.01 * 2.0 ** attempt, t.recovery_cap)
        for _ in range(50):
            delay = controller._recovery_backoff_delay(attempt)
            assert nominal * 0.8 <= delay <= nominal * 1.2


def test_jitter_is_deterministic_per_pid():
    t = timeouts(recovery_jitter=0.2)
    one = MembershipController(pid=3, timeouts=t)
    two = MembershipController(pid=3, timeouts=t)
    assert [one._recovery_backoff_delay(a) for a in range(6)] == [
        two._recovery_backoff_delay(a) for a in range(6)
    ]


# -- retry rounds -------------------------------------------------------


def test_unanswered_round_retries_with_backed_off_timer():
    controller = stuck_recovering_controller(timeouts(recovery_timeout=0.01))
    effects = controller.on_timer(TIMER_RECOVERY)
    assert controller.state is MemberState.RECOVER
    assert controller.recovery_retries == 1
    # Attempt 1 re-arms the timer at base * backoff (jitter disabled).
    assert recovery_timer_delays(effects) == [0.02]


def test_retry_regossips_status_to_reprompt_peers():
    from repro.membership.messages import RecoveryStatus

    controller = stuck_recovering_controller(timeouts())
    effects = controller.on_timer(TIMER_RECOVERY)
    statuses = [
        effect.message
        for effect in effects
        if isinstance(effect, SendControl)
        and isinstance(effect.message, RecoveryStatus)
    ]
    assert statuses and statuses[0].new_ring_id == NEW_RING


def test_budget_exhaustion_aborts_to_gather_with_suspects_condemned():
    controller = stuck_recovering_controller(timeouts(recovery_retries=2))
    controller.on_timer(TIMER_RECOVERY)  # attempt 1
    controller.on_timer(TIMER_RECOVERY)  # attempt 2
    effects = controller.on_timer(TIMER_RECOVERY)  # budget exhausted
    assert controller.state is MemberState.GATHER
    assert controller.recovery_aborts == 1
    # Both peers were silent for >= recovery_suspect_after rounds: the
    # regather starts with them condemned, visible in the first join.
    joins = sent_joins(effects)
    assert joins and joins[0].fail_set == frozenset({1, 2})


def test_peer_that_answers_is_not_suspected_on_abort():
    from repro.membership.messages import RecoveryStatus

    controller = stuck_recovering_controller(timeouts(recovery_retries=2))
    controller.on_timer(TIMER_RECOVERY)
    controller.on_timer(TIMER_RECOVERY)
    # Peer 1 answers late in the exchange; peer 2 stays silent.
    controller.on_message(
        RecoveryStatus(
            sender=1,
            new_ring_id=NEW_RING,
            old_ring_id=encode_ring_id(0, 0),
            have=(),
            complete=False,
        )
    )
    effects = controller.on_timer(TIMER_RECOVERY)
    assert controller.state is MemberState.GATHER
    joins = sent_joins(effects)
    assert joins and joins[0].fail_set == frozenset({2})


def test_zero_retries_restores_legacy_first_deadline_abort():
    controller = stuck_recovering_controller(timeouts(recovery_retries=0))
    controller.on_timer(TIMER_RECOVERY)
    assert controller.state is MemberState.GATHER
    assert controller.recovery_retries == 0
    assert controller.recovery_aborts == 1


# -- idempotence --------------------------------------------------------


def test_recovery_timer_is_idempotent_after_abort():
    controller = stuck_recovering_controller(timeouts(recovery_retries=0))
    controller.on_timer(TIMER_RECOVERY)
    assert controller.state is MemberState.GATHER
    # Stray deferred firings after the abort are no-ops: no new abort, no
    # re-armed recovery timer, state untouched.
    effects = controller.on_timer(TIMER_RECOVERY)
    assert controller.recovery_aborts == 1
    assert recovery_timer_delays(effects) == []
    assert controller.state is MemberState.GATHER


def test_recovery_timer_is_noop_while_operational():
    controller = MembershipController(pid=0, timeouts=timeouts())
    controller.start()
    from repro.membership.controller import TIMER_CONSENSUS

    controller.on_timer(TIMER_CONSENSUS)  # singleton install
    assert controller.state is MemberState.OPERATIONAL
    assert controller.on_timer(TIMER_RECOVERY) == []


# -- early abort on explicit evidence ----------------------------------


def test_join_from_recovery_peer_at_new_epoch_aborts_early():
    controller = stuck_recovering_controller(timeouts(recovery_retries=5))
    # Peer 1 gathering at the new ring's epoch proves it abandoned the
    # exchange: no point burning the retry budget.
    controller.on_message(
        JoinMessage(
            sender=1,
            proc_set=frozenset(MEMBERS),
            fail_set=frozenset(),
            ring_seq=1,
        )
    )
    assert controller.state is MemberState.GATHER
    assert controller.recovery_aborts == 1


def test_stale_join_from_before_the_commit_does_not_abort():
    controller = stuck_recovering_controller(timeouts(recovery_retries=5))
    controller.on_message(
        JoinMessage(
            sender=1,
            proc_set=frozenset(MEMBERS),
            fail_set=frozenset(),
            ring_seq=0,  # pre-commit epoch: a delayed duplicate
        )
    )
    assert controller.state is MemberState.RECOVER
    assert controller.recovery_aborts == 0


# -- observability ------------------------------------------------------


def test_recovery_metrics_and_hooks_fire():
    observer = MetricsObserver()
    controller = stuck_recovering_controller(
        timeouts(recovery_retries=1), observer=observer
    )
    controller.on_timer(TIMER_RECOVERY)  # retry
    controller.on_timer(TIMER_RECOVERY)  # abort
    counters = observer.registry.snapshot()["counters"]
    assert counters["recovery.started"] == 1
    assert counters["recovery.retries"] == 1
    assert counters["recovery.aborted"] == 1

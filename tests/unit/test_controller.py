"""Sans-io unit tests for the membership controller.

These drive controllers by hand-feeding messages and timer fires — no
network, no clock — to pin down the state machine's transitions.
"""

import pytest

from repro.core.events import SendToken
from repro.core.messages import DeliveryService
from repro.core.token import initial_token
from repro.membership.controller import (
    MemberState,
    MembershipController,
    TIMER_CONSENSUS,
    TIMER_JOIN,
    TIMER_SETTLE,
    TIMER_TOKEN_LOSS,
)
from repro.core.events import (
    CancelTimer,
    DeliverConfiguration,
    Deliver,
    SendControl,
    SetTimer,
)
from repro.membership.messages import (
    BeaconMessage,
    CommitToken,
    JoinMessage,
    MemberInfo,
)
from repro.membership.ring_id import encode_ring_id
from tests.conftest import data_message


def controls(effects, message_type):
    return [
        e.message
        for e in effects
        if isinstance(e, SendControl) and isinstance(e.message, message_type)
    ]


def make_controller(pid=0, **kwargs):
    return MembershipController(pid=pid, **kwargs)


def form_singleton(controller):
    """Drive a controller to a singleton operational ring."""
    controller.start()
    effects = controller.on_timer(TIMER_CONSENSUS)
    assert controller.state is MemberState.OPERATIONAL
    return effects


class TestGather:
    def test_start_multicasts_join(self):
        controller = make_controller()
        effects = controller.start()
        joins = controls(effects, JoinMessage)
        assert len(joins) == 1
        assert joins[0].proc_set == frozenset({0})
        assert controller.state is MemberState.GATHER

    def test_join_merges_proc_sets_and_rebroadcasts(self):
        controller = make_controller(pid=0)
        controller.start()
        join = JoinMessage(sender=1, proc_set=frozenset({1, 2}),
                           fail_set=frozenset(), ring_seq=0)
        effects = controller.on_message(join)
        sent = controls(effects, JoinMessage)
        assert sent and sent[0].proc_set == frozenset({0, 1, 2})

    def test_identical_join_does_not_rebroadcast(self):
        controller = make_controller(pid=0)
        controller.start()
        join = JoinMessage(sender=1, proc_set=frozenset({0, 1}),
                           fail_set=frozenset(), ring_seq=0)
        controller.on_message(join)
        effects = controller.on_message(join)
        # proc set unchanged: no extra join (consensus checks only)
        assert not controls(effects, JoinMessage)

    def test_consensus_makes_representative_send_commit_token(self):
        controller = make_controller(pid=0)
        controller.start()
        # peer 1 agrees with the merged view {0,1}
        join = JoinMessage(sender=1, proc_set=frozenset({0, 1}),
                           fail_set=frozenset(), ring_seq=0)
        effects = controller.on_message(join)
        # consensus holds but must settle before committing
        assert controller.state is MemberState.GATHER
        assert any(
            isinstance(e, SetTimer) and e.name == TIMER_SETTLE for e in effects
        )
        effects = controller.on_timer(TIMER_SETTLE)
        commits = controls(effects, CommitToken)
        assert len(commits) == 1
        assert commits[0].members == (0, 1)
        assert 0 in commits[0].infos
        assert controller.state is MemberState.COMMIT

    def test_settle_cancelled_when_view_grows(self):
        controller = make_controller(pid=0)
        controller.start()
        controller.on_message(
            JoinMessage(sender=1, proc_set=frozenset({0, 1}),
                        fail_set=frozenset(), ring_seq=0)
        )
        effects = controller.on_message(
            JoinMessage(sender=2, proc_set=frozenset({0, 1, 2}),
                        fail_set=frozenset(), ring_seq=0)
        )
        assert any(
            isinstance(e, CancelTimer) and e.name == TIMER_SETTLE for e in effects
        )
        # the settle fire for the outdated view must not commit
        controller.on_timer(TIMER_SETTLE)
        assert controller.state is MemberState.GATHER

    def test_non_representative_waits_for_commit_token(self):
        controller = make_controller(pid=1)
        controller.start()
        join = JoinMessage(sender=0, proc_set=frozenset({0, 1}),
                           fail_set=frozenset(), ring_seq=0)
        controller.on_message(join)
        effects = controller.on_timer(TIMER_SETTLE)
        assert not controls(effects, CommitToken)
        assert controller.state is MemberState.COMMIT

    def test_consensus_timeout_fails_unresponsive_peers_after_patience(self):
        controller = make_controller(pid=0)
        controller.start()
        # hear about peer 2 through peer 1, but 2 never sends a join
        join = JoinMessage(sender=1, proc_set=frozenset({0, 1, 2}),
                           fail_set=frozenset(), ring_seq=0)
        controller.on_message(join)
        # first timeout: patience — no verdict yet (2 may be mid-commit)
        effects = controller.on_timer(TIMER_CONSENSUS)
        sent = controls(effects, JoinMessage)
        assert sent and 2 not in sent[0].fail_set
        # second consecutive silent window: now 2 is declared failed
        effects = controller.on_timer(TIMER_CONSENSUS)
        sent = controls(effects, JoinMessage)
        assert sent and 2 in sent[0].fail_set

    def test_stale_epoch_join_ignored_in_gather(self):
        controller = make_controller(pid=0)
        controller.start()
        fresh = JoinMessage(sender=1, proc_set=frozenset({0, 1}),
                            fail_set=frozenset(), ring_seq=9)
        controller.on_message(fresh)  # bumps our epoch to 9
        poisoned = JoinMessage(sender=2, proc_set=frozenset({0, 1, 2}),
                               fail_set=frozenset({1}), ring_seq=3)
        controller.on_message(poisoned)
        # the stale verdict against 1 was discarded entirely
        assert 1 not in controller._fail_set
        assert 2 not in controller._joins

    def test_stale_accusation_does_not_trigger_retaliation(self):
        controller = make_controller(pid=0)
        controller.start()
        controller.on_message(
            JoinMessage(sender=1, proc_set=frozenset({0, 1}),
                        fail_set=frozenset(), ring_seq=9)
        )
        accusation = JoinMessage(sender=2, proc_set=frozenset({2}),
                                 fail_set=frozenset({0}), ring_seq=1)
        controller.on_message(accusation)
        assert 2 not in controller._fail_set

    def test_current_accusation_triggers_retaliation(self):
        controller = make_controller(pid=0)
        controller.start()
        accusation = JoinMessage(sender=2, proc_set=frozenset({2}),
                                 fail_set=frozenset({0}), ring_seq=0)
        controller.on_message(accusation)
        assert 2 in controller._fail_set

    def test_singleton_formed_only_after_timeout(self):
        controller = make_controller(pid=0)
        controller.start()
        assert controller.state is MemberState.GATHER
        effects = controller.on_timer(TIMER_CONSENSUS)
        assert controller.state is MemberState.OPERATIONAL
        assert controller.members == (0,)
        # representative injects the first regular token to itself
        tokens = [e for e in effects if isinstance(e, SendToken)]
        assert tokens and tokens[0].destination == 0

    def test_join_timer_rebroadcasts(self):
        controller = make_controller()
        controller.start()
        effects = controller.on_timer(TIMER_JOIN)
        assert controls(effects, JoinMessage)

    def test_own_join_echo_ignored(self):
        controller = make_controller(pid=0)
        controller.start()
        echo = JoinMessage(sender=0, proc_set=frozenset({0}),
                           fail_set=frozenset(), ring_seq=0)
        assert controller.on_message(echo) == []


class TestCommit:
    def test_commit_token_gains_info_and_forwards(self):
        controller = make_controller(pid=1)
        controller.start()
        controller.on_message(
            JoinMessage(sender=0, proc_set=frozenset({0, 1}),
                        fail_set=frozenset(), ring_seq=0)
        )
        token = CommitToken(ring_id=encode_ring_id(1, 0), members=(0, 1))
        token.infos[0] = MemberInfo(old_ring_id=encode_ring_id(0, 0), old_aru=0, high_seq=0)
        effects = controller.on_message(token)
        forwarded = controls(effects, CommitToken)
        assert forwarded
        assert 1 in forwarded[0].infos
        # The token became complete; with a fresh (empty) old ring the
        # recovery exchange finishes synchronously and the ring installs.
        assert controller.state is MemberState.OPERATIONAL
        assert controller.members == (0, 1)

    def test_commit_token_for_unagreed_membership_ignored(self):
        controller = make_controller(pid=1)
        controller.start()
        token = CommitToken(ring_id=encode_ring_id(1, 0), members=(0, 1, 2))
        assert controller.on_message(token) == []
        assert controller.state is MemberState.GATHER

    def test_commit_token_excluding_us_ignored(self):
        controller = make_controller(pid=5)
        controller.start()
        token = CommitToken(ring_id=encode_ring_id(1, 0), members=(0, 1))
        assert controller.on_message(token) == []


class TestSingletonLifecycle:
    def test_singleton_install_delivers_regular_config(self):
        controller = make_controller(pid=3)
        controller.start()
        effects = controller.on_timer(TIMER_CONSENSUS)
        configs = [e for e in effects if isinstance(e, DeliverConfiguration)]
        regular = [c for c in configs if not c.configuration.transitional]
        assert len(regular) == 1
        assert regular[0].configuration.members == frozenset({3})

    def test_first_install_skips_transitional_config(self):
        controller = make_controller(pid=3)
        controller.start()
        effects = controller.on_timer(TIMER_CONSENSUS)
        transitional = [
            e for e in effects
            if isinstance(e, DeliverConfiguration) and e.configuration.transitional
        ]
        assert transitional == []

    def test_singleton_orders_its_own_messages(self):
        controller = make_controller(pid=0)
        controller.submit(payload=b"early", service=DeliveryService.AGREED)
        form_singleton(controller)
        token = initial_token(controller.ring_id)
        effects = controller.on_message(token)
        (run,) = [e for e in effects if isinstance(e, Deliver)]
        assert [m.payload for m in run.messages] == [b"early"]
        assert run.config_id == run.origin_ring == controller.ring_id

    def test_token_loss_triggers_regather(self):
        controller = make_controller(pid=0)
        form_singleton(controller)
        effects = controller.on_timer(TIMER_TOKEN_LOSS)
        assert controller.state is MemberState.GATHER
        assert controls(effects, JoinMessage)
        assert controller.token_losses == 1


class TestOperationalStimuli:
    def test_foreign_beacon_triggers_gather(self):
        controller = make_controller(pid=0)
        form_singleton(controller)
        effects = controller.on_message(BeaconMessage(sender=9, ring_id=12345679))
        assert controller.state is MemberState.GATHER

    def test_own_ring_beacon_ignored(self):
        controller = make_controller(pid=0)
        form_singleton(controller)
        effects = controller.on_message(
            BeaconMessage(sender=0, ring_id=controller.ring_id)
        )
        assert controller.state is MemberState.OPERATIONAL

    def test_foreign_data_triggers_gather(self):
        controller = make_controller(pid=0)
        form_singleton(controller)
        controller.on_message(data_message(1, pid=9, ring_id=987654321))
        assert controller.state is MemberState.GATHER

    def test_join_while_operational_triggers_merge(self):
        from repro.membership.ring_id import decode_ring_id

        controller = make_controller(pid=0)
        form_singleton(controller)
        my_seq, _ = decode_ring_id(controller.ring_id)
        # a peer that has heard our beacon joins at our epoch
        join = JoinMessage(sender=1, proc_set=frozenset({1}),
                           fail_set=frozenset(), ring_seq=my_seq)
        effects = controller.on_message(join)
        assert controller.state is MemberState.GATHER
        sent = controls(effects, JoinMessage)
        # merged view includes both of us
        assert any(j.proc_set == frozenset({0, 1}) for j in sent)

    def test_stale_member_join_does_not_tear_down_ring(self):
        # Form a two-member ring, then replay a straggler join from the
        # other member with the pre-ring epoch: it must be ignored.
        controller = make_controller(pid=0)
        controller.start()
        controller.on_message(
            JoinMessage(sender=1, proc_set=frozenset({0, 1}),
                        fail_set=frozenset(), ring_seq=0)
        )
        controller.on_timer(TIMER_SETTLE)
        token = CommitToken(ring_id=encode_ring_id(1, 0), members=(0, 1))
        token.infos[0] = MemberInfo(old_ring_id=encode_ring_id(0, 0),
                                    old_aru=0, high_seq=0)
        token.infos[1] = MemberInfo(old_ring_id=encode_ring_id(0, 1),
                                    old_aru=0, high_seq=0)
        controller.on_message(token)
        assert controller.state is MemberState.OPERATIONAL
        straggler = JoinMessage(sender=1, proc_set=frozenset({0, 1}),
                                fail_set=frozenset(), ring_seq=0)
        controller.on_message(straggler)
        assert controller.state is MemberState.OPERATIONAL

    def test_non_member_join_triggers_merge_regardless_of_epoch(self):
        controller = make_controller(pid=0)
        form_singleton(controller)
        newcomer = JoinMessage(sender=9, proc_set=frozenset({9}),
                               fail_set=frozenset(), ring_seq=0)
        controller.on_message(newcomer)
        assert controller.state is MemberState.GATHER

    def test_beacon_bumps_ring_epoch(self):
        from repro.membership.ring_id import encode_ring_id

        controller = make_controller(pid=0)
        controller.start()
        controller.on_message(BeaconMessage(sender=9, ring_id=encode_ring_id(12, 9)))
        assert controller.highest_ring_seq >= 12

    def test_pre_ring_submissions_survive_to_first_ring(self):
        controller = make_controller(pid=0)
        controller.submit(payload=b"queued")
        assert controller.ordering is None
        form_singleton(controller)
        assert controller.ordering.pending_count == 1

    def test_unknown_timer_rejected(self):
        controller = make_controller()
        with pytest.raises(ValueError):
            controller.on_timer("bogus")

    def test_unknown_message_rejected(self):
        controller = make_controller()
        with pytest.raises(TypeError):
            controller.on_message(object())

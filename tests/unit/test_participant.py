"""Unit tests for the Accelerated Ring participant's token handling."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.events import Deliver, MulticastData, SendToken, Stable
from repro.core.messages import DeliveryService
from repro.core.original import OriginalRingParticipant
from repro.core.participant import AcceleratedRingParticipant
from repro.core.token import RegularToken, initial_token
from repro.util.errors import ProtocolError
from tests.conftest import data_message, delivered_runs, drain_effects, submit_n


def make_participant(pid=0, n=3, personal=5, accel=3, ring_id=1):
    config = ProtocolConfig(personal_window=personal, accelerated_window=accel,
                            global_window=100)
    return AcceleratedRingParticipant(pid, list(range(n)), config, ring_id=ring_id)


class TestConstruction:
    def test_successor_and_predecessor(self):
        participant = make_participant(pid=1, n=3)
        assert participant.successor == 2
        assert participant.predecessor == 0

    def test_ring_wraps(self):
        participant = make_participant(pid=2, n=3)
        assert participant.successor == 0

    def test_pid_must_be_in_ring(self):
        with pytest.raises(ProtocolError):
            AcceleratedRingParticipant(9, [0, 1, 2])

    def test_duplicate_ring_ids_rejected(self):
        with pytest.raises(ProtocolError):
            AcceleratedRingParticipant(0, [0, 0, 1])


class TestTokenHandling:
    def test_effect_order_pre_token_post_deliver(self):
        participant = make_participant()
        submit_n(participant, 5)
        effects = participant.on_token(initial_token(1))
        kinds = [type(e).__name__ for e in effects]
        token_at = kinds.index("SendToken")
        # pre-token multicasts (5-3=2), token, post-token (3), deliveries
        # (own 5, as one in-order run)
        assert kinds[:token_at] == ["MulticastData"] * 2
        assert kinds[token_at + 1 : token_at + 4] == ["MulticastData"] * 3
        assert kinds[token_at + 4 :] == ["Deliver"]
        assert delivered_runs(effects) == [[1, 2, 3, 4, 5]]

    def test_sequence_numbers_consecutive_from_token_seq(self):
        participant = make_participant()
        submit_n(participant, 4)
        token = initial_token(1)
        token.seq = 10
        token.aru = 10  # keep aru==seq so validation holds
        effects = participant.on_token(token)
        sent = [e.message.seq for e in drain_effects(effects, MulticastData)]
        assert sent == [11, 12, 13, 14]
        sent_token = drain_effects(effects, SendToken)[0].token
        assert sent_token.seq == 14

    def test_post_token_flag_marks_accelerated_sends(self):
        participant = make_participant(personal=5, accel=3)
        submit_n(participant, 5)
        effects = participant.on_token(initial_token(1))
        multicasts = drain_effects(effects, MulticastData)
        assert [m.message.post_token for m in multicasts] == [
            False, False, True, True, True
        ]

    def test_token_goes_to_successor(self):
        participant = make_participant(pid=1, n=4)
        effects = participant.on_token(initial_token(1))
        assert drain_effects(effects, SendToken)[0].destination == 2

    def test_duplicate_token_ignored(self):
        participant = make_participant()
        token = initial_token(1)
        assert participant.on_token(token.copy())
        assert participant.on_token(token.copy()) == []
        assert participant.duplicate_tokens == 1

    def test_foreign_ring_token_ignored(self):
        participant = make_participant(ring_id=1)
        token = initial_token(ring_id=2)
        assert participant.on_token(token) == []

    def test_round_counter_increments(self):
        participant = make_participant()
        token = participant.on_token(initial_token(1))
        assert participant.round == 1
        # simulate the token coming back with a higher id
        nxt = RegularToken(ring_id=1, token_id=5)
        participant.on_token(nxt)
        assert participant.round == 2

    def test_leader_increments_rotation(self):
        leader = make_participant(pid=0)
        effects = leader.on_token(initial_token(1))
        assert drain_effects(effects, SendToken)[0].token.rotation == 1
        other = make_participant(pid=1)
        effects = other.on_token(initial_token(1))
        assert drain_effects(effects, SendToken)[0].token.rotation == 0

    def test_token_id_incremented_on_send(self):
        participant = make_participant()
        token = initial_token(1)
        effects = participant.on_token(token)
        assert drain_effects(effects, SendToken)[0].token.token_id == 1

    def test_ring_id_stamped_on_messages(self):
        participant = make_participant(ring_id=42)
        submit_n(participant, 1)
        effects = participant.on_token(initial_token(42))
        assert drain_effects(effects, MulticastData)[0].message.ring_id == 42


class TestAruRules:
    def test_aru_advances_with_seq_when_equal(self):
        participant = make_participant()
        submit_n(participant, 3)
        effects = participant.on_token(initial_token(1))
        token = drain_effects(effects, SendToken)[0].token
        assert token.aru == token.seq == 3
        assert token.aru_lowered_by is None

    def test_aru_lowered_to_local_when_behind(self):
        participant = make_participant(pid=1)
        participant.on_data(data_message(1, pid=0))
        # messages 2..5 in flight; token claims seq=5, aru=5
        token = RegularToken(ring_id=1, seq=5, aru=5)
        effects = participant.on_token(token)
        sent = [e for e in effects if isinstance(e, SendToken)][0].token
        assert sent.aru == 1
        assert sent.aru_lowered_by == 1

    def test_lowerer_raises_its_own_aru_next_round(self):
        participant = make_participant(pid=1)
        participant.on_data(data_message(1, pid=0))
        token = RegularToken(ring_id=1, seq=5, aru=5)
        sent = [e for e in participant.on_token(token) if isinstance(e, SendToken)][0].token
        assert sent.aru == 1
        # the missing messages arrive before the next token
        for seq in (2, 3, 4, 5):
            participant.on_data(data_message(seq, pid=0))
        back = RegularToken(ring_id=1, token_id=5, seq=5, aru=1, aru_lowered_by=1)
        sent2 = [e for e in participant.on_token(back) if isinstance(e, SendToken)][0].token
        assert sent2.aru == 5
        assert sent2.aru_lowered_by is None

    def test_other_lowerer_left_alone(self):
        participant = make_participant(pid=1)
        for seq in (1, 2, 3):
            participant.on_data(data_message(seq, pid=0))
        token = RegularToken(ring_id=1, seq=3, aru=2, aru_lowered_by=2)
        sent = [e for e in participant.on_token(token) if isinstance(e, SendToken)][0].token
        # we have everything (local aru 3 > 2) but pid 2 governs the aru
        assert sent.aru == 2
        assert sent.aru_lowered_by == 2

    def test_aru_not_advanced_when_lagging_seq(self):
        participant = make_participant(pid=1)
        for seq in (1, 2, 3, 4, 5):
            participant.on_data(data_message(seq, pid=0))
        token = RegularToken(ring_id=1, seq=5, aru=3, aru_lowered_by=2)
        submit_n(participant, 2)
        sent = [e for e in participant.on_token(token) if isinstance(e, SendToken)][0].token
        assert sent.seq == 7
        assert sent.aru == 3  # cannot advance: someone else is behind


class TestFlowControlOnToken:
    def test_fcc_reflects_current_round(self):
        participant = make_participant()
        submit_n(participant, 4)
        effects = participant.on_token(initial_token(1))
        token = drain_effects(effects, SendToken)[0].token
        assert token.fcc == 4

    def test_fcc_replaces_previous_contribution(self):
        participant = make_participant()
        submit_n(participant, 4)
        token1 = [e for e in participant.on_token(initial_token(1))
                  if isinstance(e, SendToken)][0].token
        assert token1.fcc == 4
        # next round: nothing to send; fcc should drop our 4
        back = token1.copy()
        back.token_id = 10
        token2 = [e for e in participant.on_token(back)
                  if isinstance(e, SendToken)][0].token
        assert token2.fcc == 0

    def test_global_window_limits_num_to_send(self):
        config = ProtocolConfig(personal_window=10, accelerated_window=5,
                                global_window=12)
        participant = AcceleratedRingParticipant(0, [0, 1], config)
        submit_n(participant, 10)
        token = initial_token(1)
        token.fcc = 9
        effects = participant.on_token(token)
        assert len(drain_effects(effects, MulticastData)) == 3


class TestRetransmissions:
    def test_answers_requests_it_can_serve(self):
        participant = make_participant(pid=0)
        submit_n(participant, 3)
        participant.on_token(initial_token(1))  # originates 1..3
        token = RegularToken(ring_id=1, token_id=5, seq=3, aru=0, rtr=[2, 3])
        effects = participant.on_token(token)
        retrans = [e for e in drain_effects(effects, MulticastData) if e.retransmission]
        assert [r.message.seq for r in retrans] == [2, 3]
        sent = drain_effects(effects, SendToken)[0].token
        assert sent.rtr == []

    def test_unanswerable_requests_stay_on_token(self):
        participant = make_participant(pid=1)
        token = RegularToken(ring_id=1, seq=5, aru=0, rtr=[4])
        effects = participant.on_token(token)
        sent = drain_effects(effects, SendToken)[0].token
        assert 4 in sent.rtr

    def test_accelerated_requests_lag_one_round(self):
        # Paper §III-B2: request only up through the seq of the token
        # received in the PREVIOUS round.
        participant = make_participant(pid=1)
        participant.on_data(data_message(1, pid=0))
        token = RegularToken(ring_id=1, seq=5, aru=1)
        sent = [e for e in participant.on_token(token) if isinstance(e, SendToken)][0].token
        assert sent.rtr == []  # 2..5 may be in flight, not lost
        # still missing next round: now they are requested
        token2 = RegularToken(ring_id=1, token_id=5, seq=5, aru=1, aru_lowered_by=1)
        sent2 = [e for e in participant.on_token(token2) if isinstance(e, SendToken)][0].token
        assert sent2.rtr == [2, 3, 4, 5]

    def test_original_requests_immediately(self):
        participant = OriginalRingParticipant(1, [0, 1, 2])
        participant.on_data(data_message(1, pid=0))
        token = RegularToken(ring_id=1, seq=5, aru=1)
        sent = [e for e in participant.on_token(token) if isinstance(e, SendToken)][0].token
        assert sent.rtr == [2, 3, 4, 5]

    def test_no_duplicate_requests_added(self):
        participant = OriginalRingParticipant(1, [0, 1, 2])
        participant.on_data(data_message(1, pid=0))
        token = RegularToken(ring_id=1, seq=3, aru=1, rtr=[2])
        sent = [e for e in participant.on_token(token) if isinstance(e, SendToken)][0].token
        assert sorted(sent.rtr) == [2, 3]
        assert len(sent.rtr) == len(set(sent.rtr))


class TestRollback:
    def test_rollback_frontier(self):
        participant = make_participant(pid=1)
        effects = participant.on_data(data_message(1, pid=0))
        assert delivered_runs(effects) == [[1]]
        participant.rollback_delivery_frontier(0)
        assert participant.last_delivered == 0
        # re-delivery possible
        effects = participant.on_data(data_message(2, pid=0))
        assert delivered_runs(effects) == [[1, 2]]

    def test_rollback_forward_rejected(self):
        participant = make_participant()
        with pytest.raises(ProtocolError):
            participant.rollback_delivery_frontier(5)


def sent_token(effects):
    return drain_effects(effects, SendToken)[0].token


class TestEmptyVisitGuards:
    """``on_token`` skips a phase whose input is empty.  Each case here is
    a visit that looks idle by one measure (nothing queued, empty rtr)
    yet has work in another phase, which its guard must not swallow."""

    def test_idle_visit_is_just_the_token(self):
        participant = make_participant(pid=1)
        effects = participant.on_token(RegularToken(ring_id=1, token_id=3, rotation=2))
        assert [type(e) for e in effects] == [SendToken]
        assert sent_token(effects) == RegularToken(ring_id=1, token_id=4, rotation=2)

    def test_received_token_is_not_mutated_and_rtr_is_not_shared(self):
        participant = make_participant(pid=0)
        received = RegularToken(ring_id=1, token_id=3, seq=4, aru=0, rtr=[2])
        before = received.copy()
        sent = sent_token(participant.on_token(received))
        assert received == before
        assert sent.rtr == [2] and sent.rtr is not received.rtr
        idle = initial_token(1)
        idle.token_id = 9
        assert sent_token(participant.on_token(idle)).rtr is not idle.rtr

    def test_empty_rtr_but_aru_behind_previous_seq_must_request(self):
        participant = make_participant(pid=1)
        participant.on_data(data_message(1, pid=0))
        participant.on_token(RegularToken(ring_id=1, seq=3, aru=1))
        # Nothing queued, nothing on the rtr list — but 2 and 3 were
        # covered by the previous round's seq and are still missing.
        effects = participant.on_token(
            RegularToken(ring_id=1, token_id=5, seq=3, aru=1, aru_lowered_by=1)
        )
        assert sent_token(effects).rtr == [2, 3]
        assert participant.requests_made == 2

    def test_aru_advance_on_an_empty_visit_releases_a_buffered_safe_message(self):
        participant = make_participant(pid=1)
        effects = participant.on_data(data_message(1, pid=0, service=DeliveryService.SAFE))
        assert effects == []  # held: not yet known stable
        first = participant.on_token(RegularToken(ring_id=1, seq=1, aru=1))
        assert drain_effects(first, Deliver) == []  # min(0, 1): one more round
        second = participant.on_token(RegularToken(ring_id=1, token_id=5, seq=1, aru=1))
        assert delivered_runs(second) == [[1]]

    def test_empty_visit_that_makes_messages_stable_emits_stable(self):
        participant = make_participant(pid=1)
        for seq in (1, 2):
            participant.on_data(data_message(seq, pid=0))  # Agreed: delivered at once
        first = participant.on_token(RegularToken(ring_id=1, seq=2, aru=2))
        assert drain_effects(first, Stable) == []
        second = participant.on_token(RegularToken(ring_id=1, token_id=5, seq=2, aru=2))
        assert [e.seq for e in drain_effects(second, Stable)] == [2]
        assert len(participant.buffer) == 0

    def test_discard_only_when_the_limit_passes_the_last_discard(self):
        participant = make_participant(pid=1)
        for seq in (1, 2):
            participant.on_data(data_message(seq, pid=0))
        participant.on_token(RegularToken(ring_id=1, token_id=3, seq=2, aru=2))
        second = participant.on_token(RegularToken(ring_id=1, token_id=5, seq=2, aru=2))
        assert [e.seq for e in drain_effects(second, Stable)] == [2]
        # The limit stays at 2: nothing is left below it to drop.
        third = participant.on_token(RegularToken(ring_id=1, token_id=7, seq=2, aru=2))
        assert [type(e) for e in third] == [SendToken]
        participant.on_data(data_message(3, pid=0))  # delivered on arrival
        fourth = participant.on_token(RegularToken(ring_id=1, token_id=9, seq=3, aru=3))
        assert drain_effects(fourth, Stable) == []  # min(2, 3): one more round
        # A visit that sends and delivers nothing but moves the limit.
        fifth = participant.on_token(RegularToken(ring_id=1, token_id=11, seq=3, aru=3))
        assert drain_effects(fifth, MulticastData) == drain_effects(fifth, Deliver) == []
        assert [e.seq for e in drain_effects(fifth, Stable)] == [3]
        assert len(participant.buffer) == 0

    def test_pending_but_zero_global_headroom_sends_nothing_and_keeps_the_queue(self):
        config = ProtocolConfig(personal_window=5, accelerated_window=3, global_window=10)
        participant = AcceleratedRingParticipant(1, [0, 1, 2], config)
        submit_n(participant, 4)
        effects = participant.on_token(RegularToken(ring_id=1, fcc=10))
        assert drain_effects(effects, MulticastData) == []
        token = sent_token(effects)
        assert (token.seq, token.aru, token.fcc) == (0, 0, 10)
        assert participant.pending_count == 4
        assert participant.messages_originated == 0

    def test_rtr_answer_counts_against_the_fcc_with_nothing_queued(self):
        participant = make_participant(pid=0)
        submit_n(participant, 2)
        participant.on_token(initial_token(1))  # originates 1..2, sent_last_round = 2
        effects = participant.on_token(
            RegularToken(ring_id=1, token_id=5, seq=2, aru=0, fcc=2, rtr=[2])
        )
        token = sent_token(effects)
        assert token.rtr == []
        assert token.fcc == 1  # 2 - our 2 from last round + 1 retransmission
        assert participant.retransmissions_sent == 1

"""Unit tests for Agreed/Safe delivery semantics (paper §III-B4, §III-C)."""

from repro.core.config import ProtocolConfig
from repro.core.events import Deliver, Stable
from repro.core.messages import DeliveryService
from repro.core.participant import AcceleratedRingParticipant
from repro.core.token import RegularToken
from tests.conftest import data_message, delivered_runs, drain_effects


def make_participant(pid=1, n=3):
    config = ProtocolConfig(personal_window=5, accelerated_window=3, global_window=50)
    return AcceleratedRingParticipant(pid, list(range(n)), config)


class TestAgreedDelivery:
    def test_in_order_delivery_on_receipt(self):
        participant = make_participant()
        effects = participant.on_data(data_message(1, pid=0))
        assert delivered_runs(effects) == [[1]]

    def test_gap_blocks_delivery(self):
        participant = make_participant()
        effects = participant.on_data(data_message(2, pid=0))
        assert drain_effects(effects, Deliver) == []
        effects = participant.on_data(data_message(1, pid=0))
        assert delivered_runs(effects) == [[1, 2]]

    def test_duplicate_not_redelivered(self):
        participant = make_participant()
        participant.on_data(data_message(1, pid=0))
        effects = participant.on_data(data_message(1, pid=0))
        assert effects == []

    def test_total_order_is_by_seq_not_arrival(self):
        participant = make_participant()
        for seq in (3, 1, 2):
            participant.on_data(data_message(seq, pid=0))
        assert participant.last_delivered == 3


class TestSafeDelivery:
    def test_safe_message_blocks_until_stable(self):
        participant = make_participant()
        effects = participant.on_data(
            data_message(1, pid=0, service=DeliveryService.SAFE)
        )
        assert drain_effects(effects, Deliver) == []
        assert participant.last_delivered == 0

    def test_safe_blocks_later_agreed_messages(self):
        # Total order must hold across services: agreed message 2 cannot
        # jump over undelivered safe message 1.
        participant = make_participant()
        participant.on_data(data_message(1, pid=0, service=DeliveryService.SAFE))
        effects = participant.on_data(data_message(2, pid=0))
        assert drain_effects(effects, Deliver) == []

    def test_safe_limit_is_min_of_last_two_sent_arus(self):
        participant = make_participant(pid=1)
        participant.on_data(data_message(1, pid=0, service=DeliveryService.SAFE))
        # Round 1: token says seq=1; we have it; aru stays 1 via rule 3? ->
        # received aru equals seq 1; we don't lower; token.aru stays 1.
        token1 = RegularToken(ring_id=1, token_id=1, seq=1, aru=1)
        participant.on_token(token1)
        # safe limit = min(prev_sent_aru(0), sent aru(1)) = 0 -> no delivery yet
        assert participant.last_delivered == 0
        token2 = RegularToken(ring_id=1, token_id=5, seq=1, aru=1)
        effects = participant.on_token(token2)
        # now min(1, 1) = 1 -> safe message deliverable
        assert delivered_runs(effects) == [[1]]

    def test_safe_delivery_unblocks_following_agreed(self):
        participant = make_participant(pid=1)
        participant.on_data(data_message(1, pid=0, service=DeliveryService.SAFE))
        participant.on_data(data_message(2, pid=0))
        participant.on_token(RegularToken(ring_id=1, token_id=1, seq=2, aru=2))
        effects = participant.on_token(RegularToken(ring_id=1, token_id=5, seq=2, aru=2))
        assert delivered_runs(effects) == [[1, 2]]


class TestDiscard:
    def test_stable_messages_discarded_after_delivery(self):
        participant = make_participant(pid=1)
        participant.on_data(data_message(1, pid=0))
        participant.on_token(RegularToken(ring_id=1, token_id=1, seq=1, aru=1))
        effects = participant.on_token(RegularToken(ring_id=1, token_id=5, seq=1, aru=1))
        stable = drain_effects(effects, Stable)
        assert stable and stable[0].seq == 1
        assert participant.buffer.get(1) is None

    def test_undelivered_messages_not_discarded(self):
        participant = make_participant(pid=1)
        participant.on_data(data_message(1, pid=0, service=DeliveryService.SAFE))
        participant.on_token(RegularToken(ring_id=1, token_id=1, seq=1, aru=1))
        # safe limit still 0 after the first round: nothing discarded
        assert participant.buffer.get(1) is not None


class TestMixedServices:
    def test_interleaved_services_keep_total_order(self):
        participant = make_participant(pid=1)
        services = [
            DeliveryService.AGREED,
            DeliveryService.SAFE,
            DeliveryService.FIFO,
            DeliveryService.CAUSAL,
            DeliveryService.RELIABLE,
        ]
        for seq, service in enumerate(services, start=1):
            participant.on_data(data_message(seq, pid=0, service=service))
        # only seq 1 deliverable until the safe message at 2 stabilizes
        assert participant.last_delivered == 1
        participant.on_token(RegularToken(ring_id=1, token_id=1, seq=5, aru=5))
        effects = participant.on_token(RegularToken(ring_id=1, token_id=5, seq=5, aru=5))
        assert delivered_runs(effects) == [[2, 3, 4, 5]]

"""Unit tests for wire message types."""

import pytest

from repro.core.messages import SERVICE_FROM_WIRE, DataMessage, DeliveryService
from repro.core.token import RegularToken, initial_token
from repro.util.errors import CodecError


class TestDeliveryService:
    def test_only_safe_requires_stability(self):
        assert DeliveryService.SAFE.requires_stability
        for service in (
            DeliveryService.RELIABLE,
            DeliveryService.FIFO,
            DeliveryService.CAUSAL,
            DeliveryService.AGREED,
        ):
            assert not service.requires_stability


    def test_wire_table_names_every_service_and_nothing_else(self):
        for service in DeliveryService:
            assert SERVICE_FROM_WIRE[int(service)] is service
        for code in (0, 6, 255, -1):
            with pytest.raises(CodecError):
                SERVICE_FROM_WIRE[code]
        assert len(SERVICE_FROM_WIRE) == len(DeliveryService)  # a miss adds nothing


class TestDataMessage:
    def test_payload_size_defaults_to_payload_length(self):
        message = DataMessage(seq=1, pid=0, round=1,
                              service=DeliveryService.AGREED, payload=b"abc")
        assert message.payload_size == 3

    def test_payload_size_override_for_simulation(self):
        message = DataMessage(seq=1, pid=0, round=1,
                              service=DeliveryService.AGREED, payload_size=1350)
        assert message.payload_size == 1350
        assert message.payload == b""

    def test_wire_size_adds_header(self):
        message = DataMessage(seq=1, pid=0, round=1,
                              service=DeliveryService.AGREED, payload_size=1350)
        assert message.wire_size(150) == 1500


class TestRegularToken:
    def test_initial_token_is_clean(self):
        token = initial_token(ring_id=7)
        assert token.ring_id == 7
        assert token.seq == 0 and token.aru == 0 and token.fcc == 0
        assert token.rtr == []
        token.validate()

    def test_copy_is_deep_for_rtr(self):
        token = RegularToken(ring_id=1, rtr=[1, 2])
        clone = token.copy()
        clone.rtr.append(3)
        assert token.rtr == [1, 2]

    def test_wire_size_grows_with_rtr(self):
        empty = RegularToken(ring_id=1)
        loaded = RegularToken(ring_id=1, seq=100, rtr=[5, 6, 7])
        assert loaded.wire_size() == empty.wire_size() + 3 * RegularToken.RTR_ENTRY_SIZE

    def test_validate_rejects_aru_above_seq(self):
        with pytest.raises(ValueError):
            RegularToken(ring_id=1, seq=5, aru=6).validate()

    def test_validate_rejects_bad_rtr(self):
        with pytest.raises(ValueError):
            RegularToken(ring_id=1, seq=5, rtr=[6]).validate()
        with pytest.raises(ValueError):
            RegularToken(ring_id=1, seq=5, rtr=[0]).validate()

    def test_validate_rejects_negative_fcc(self):
        with pytest.raises(ValueError):
            RegularToken(ring_id=1, fcc=-1).validate()

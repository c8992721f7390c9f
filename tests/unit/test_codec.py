"""Unit tests for the binary wire codecs (core + membership)."""

import pytest

from repro.core.codec import decode, decode_data_batch, encode, encode_data_batch
from repro.core.messages import DataMessage, DeliveryService
from repro.core.token import RegularToken
from repro.core.transport_core import decode_data_port
from repro.membership.codec import decode_any, encode_any
from repro.membership.messages import (
    BeaconMessage,
    CommitToken,
    JoinMessage,
    MemberInfo,
    RecoveredMessage,
    RecoveryStatus,
)
from repro.runtime.node import RingNode
from repro.runtime.ports import ephemeral_ring_addresses
from repro.util.errors import CodecError


def sample_data(**overrides) -> DataMessage:
    fields = dict(
        seq=123456789,
        pid=7,
        round=42,
        service=DeliveryService.SAFE,
        payload=b"hello world",
        post_token=True,
        timestamp=12.5,
        ring_id=1000003,
    )
    fields.update(overrides)
    return DataMessage(**fields)


class TestDataCodec:
    def test_roundtrip(self):
        message = sample_data()
        decoded = decode(encode(message))
        assert decoded == message

    def test_roundtrip_without_timestamp(self):
        message = sample_data(timestamp=None)
        assert decode(encode(message)).timestamp is None

    def test_roundtrip_empty_payload(self):
        message = sample_data(payload=b"")
        assert decode(encode(message)).payload == b""

    def test_truncated_payload_rejected(self):
        encoded = encode(sample_data())
        with pytest.raises(CodecError):
            decode(encoded[:-4])

    def test_bad_magic_rejected(self):
        encoded = bytearray(encode(sample_data()))
        encoded[0] = 0x00
        with pytest.raises(CodecError):
            decode(bytes(encoded))

    def test_unknown_type_rejected(self):
        encoded = bytearray(encode(sample_data()))
        encoded[1] = 99
        with pytest.raises(CodecError):
            decode(bytes(encoded))

    def test_too_short_rejected(self):
        with pytest.raises(CodecError):
            decode(b"\xa5")

    @pytest.mark.parametrize("service", [0, 6, 9, 255])
    def test_service_byte_naming_no_service_rejected(self, service):
        # ``DeliveryService(9)`` is a ValueError, which no receive path
        # catches; through the table it is a CodecError, alone or batched.
        encoded = bytearray(encode(sample_data()))
        encoded[2] = service
        with pytest.raises(CodecError):
            decode(bytes(encoded))
        batch = bytearray(encode_data_batch([sample_data(), sample_data(seq=2)]))
        assert batch[10] == DeliveryService.SAFE  # first item's service byte
        batch[10] = service
        with pytest.raises(CodecError):
            decode_data_batch(bytes(batch))


class TestTokenCodec:
    def test_roundtrip_full(self):
        token = RegularToken(
            ring_id=2000006,
            token_id=99,
            seq=1000,
            aru=990,
            aru_lowered_by=3,
            fcc=240,
            rtr=[991, 993, 997],
            rotation=125,
        )
        assert decode(encode(token)) == token

    def test_roundtrip_none_lowerer(self):
        token = RegularToken(ring_id=1, aru_lowered_by=None)
        assert decode(encode(token)).aru_lowered_by is None

    def test_roundtrip_empty_rtr(self):
        token = RegularToken(ring_id=1)
        assert decode(encode(token)).rtr == []

    def test_truncated_rtr_rejected(self):
        token = RegularToken(ring_id=1, seq=10, rtr=[5, 6])
        with pytest.raises(CodecError):
            decode(encode(token)[:-3])


class TestMembershipCodecs:
    def test_join_roundtrip(self):
        join = JoinMessage(
            sender=3,
            proc_set=frozenset({1, 2, 3}),
            fail_set=frozenset({9}),
            ring_seq=17,
        )
        assert decode_any(encode_any(join)) == join

    def test_join_empty_sets(self):
        join = JoinMessage(sender=0, proc_set=frozenset({0}), fail_set=frozenset(),
                           ring_seq=0)
        assert decode_any(encode_any(join)) == join

    def test_commit_roundtrip(self):
        token = CommitToken(
            ring_id=3000009,
            members=(1, 2, 5),
            infos={
                1: MemberInfo(old_ring_id=1000003, old_aru=10, high_seq=14,
                              last_delivered=12),
                5: MemberInfo(old_ring_id=2000005, old_aru=0, high_seq=0),
            },
            rotation=1,
        )
        decoded = decode_any(encode_any(token))
        assert decoded.ring_id == token.ring_id
        assert decoded.members == token.members
        assert decoded.infos == token.infos
        assert decoded.infos[1].last_delivered == 12
        assert decoded.rotation == 1

    def test_recovered_roundtrip(self):
        message = RecoveredMessage(old_ring_id=5, message=sample_data())
        decoded = decode_any(encode_any(message))
        assert decoded.old_ring_id == 5
        assert decoded.message == sample_data()

    def test_status_roundtrip(self):
        status = RecoveryStatus(
            sender=2, new_ring_id=12, old_ring_id=5, have=(3, 4, 9), complete=True
        )
        assert decode_any(encode_any(status)) == status

    def test_status_empty_have(self):
        status = RecoveryStatus(sender=1, new_ring_id=2, old_ring_id=1, have=(),
                                complete=False)
        assert decode_any(encode_any(status)) == status

    def test_beacon_roundtrip(self):
        beacon = BeaconMessage(sender=6, ring_id=4000001)
        assert decode_any(encode_any(beacon)) == beacon

    def test_core_types_pass_through(self):
        message = sample_data()
        assert decode_any(encode_any(message)) == message

    def test_unencodable_rejected(self):
        with pytest.raises(CodecError):
            encode_any(object())

    def test_unknown_membership_type_rejected(self):
        encoded = bytearray(encode_any(BeaconMessage(sender=1, ring_id=2)))
        encoded[1] = 200
        with pytest.raises(CodecError):
            decode_any(bytes(encoded))


#: One of each membership message, every variable part non-empty.
MEMBERSHIP_SAMPLES = {
    "join": JoinMessage(sender=3, proc_set=frozenset({1, 2, 3}), fail_set=frozenset({9}),
                        ring_seq=17),
    "commit": CommitToken(
        ring_id=3000009,
        members=(1, 2, 5),
        infos={1: MemberInfo(old_ring_id=1000003, old_aru=10, high_seq=14, last_delivered=12)},
        rotation=1,
    ),
    "recovered": RecoveredMessage(old_ring_id=5, message=sample_data()),
    "status": RecoveryStatus(sender=2, new_ring_id=12, old_ring_id=5, have=(3, 4, 9),
                             complete=True),
    "beacon": BeaconMessage(sender=6, ring_id=4000001),
}


@pytest.mark.parametrize("message", MEMBERSHIP_SAMPLES.values(), ids=MEMBERSHIP_SAMPLES.keys())
def test_every_truncation_of_a_membership_message_is_a_codec_error(message):
    # Once a struct.error, which RingNode._handle_token does not catch: it
    # left the pass mid-way and skipped the batch end.
    encoded = encode_any(message)
    decode_any(encoded)  # the whole message decodes
    for cut in range(len(encoded)):
        with pytest.raises(CodecError):
            decode_any(encoded[:cut])


def test_bytes_a_data_message_does_not_account_for_are_a_codec_error():
    """One rule for the data port: a single message, like a batch, is
    rejected when its lengths leave bytes over (PROTOCOL.md §15)."""
    single = encode(sample_data())
    batch = encode_data_batch([sample_data(), sample_data(seq=2)])
    assert decode(single) == sample_data()
    node = RingNode(0, ephemeral_ring_addresses([0]))
    for decoder, data in ((decode, single), (decode_data_batch, batch)):
        for junk in (b"\x00", b"junk"):
            with pytest.raises(CodecError, match="trailing bytes"):
                decoder(data + junk)
            with pytest.raises(CodecError, match="trailing bytes"):
                decode_data_port(data + junk)
            # ... which the node's data port counts and goes on from.
            errors = node.decode_errors
            node._handle_data(data + junk)
            assert node.decode_errors == errors + 1

"""Property-based roundtrip tests for every wire codec."""

import struct

from hypothesis import given, settings, strategies as st

from repro.core.codec import (
    _DATA_HEADER,
    _TOKEN_HEADER,
    MAGIC,
    TYPE_DATA,
    TYPE_TOKEN,
    decode,
    encode,
)
from repro.core.messages import DataMessage, DeliveryService
from repro.core.token import RegularToken
from repro.membership.codec import decode_any, encode_any
from repro.spread.fragmentation import Fragmenter, FragmentReassembler
from repro.membership.messages import (
    BeaconMessage,
    CommitToken,
    JoinMessage,
    MemberInfo,
    RecoveredMessage,
    RecoveryStatus,
)
from repro.spread.wire import (
    _FRAGMENT_HEADER,
    ENV_FRAGMENT,
    AppData,
    Fragment,
    GroupJoin,
    GroupLeave,
    Packed,
    decode_envelope,
    encode_fragment,
)

pids = st.integers(min_value=0, max_value=2**31 - 1)
seqs = st.integers(min_value=0, max_value=2**62)
ring_ids = st.integers(min_value=0, max_value=2**62)
payloads = st.binary(max_size=2048)
names = st.text(
    alphabet=st.characters(blacklist_characters="#", blacklist_categories=("Cs",)),
    min_size=0,
    max_size=40,
)

data_messages = st.builds(
    DataMessage,
    seq=seqs,
    pid=pids,
    round=st.integers(min_value=0, max_value=2**40),
    service=st.sampled_from(list(DeliveryService)),
    payload=payloads,
    post_token=st.booleans(),
    timestamp=st.one_of(st.none(), st.floats(min_value=0, max_value=1e9)),
    ring_id=ring_ids,
)

tokens = st.builds(
    RegularToken,
    ring_id=ring_ids,
    token_id=st.integers(min_value=0, max_value=2**40),
    seq=seqs,
    aru=seqs,
    aru_lowered_by=st.one_of(st.none(), pids),
    fcc=st.integers(min_value=0, max_value=2**31 - 1),
    rtr=st.lists(seqs, max_size=50),
    rotation=st.integers(min_value=0, max_value=2**40),
)


@settings(max_examples=150, deadline=None)
@given(data_messages)
def test_data_roundtrip(message):
    assert decode(encode(message)) == message


@settings(max_examples=150, deadline=None)
@given(tokens)
def test_token_roundtrip(token):
    assert decode(encode(token)) == token


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        JoinMessage,
        sender=pids,
        proc_set=st.frozensets(pids, max_size=20),
        fail_set=st.frozensets(pids, max_size=20),
        ring_seq=st.integers(min_value=0, max_value=2**40),
    )
)
def test_join_roundtrip(join):
    assert decode_any(encode_any(join)) == join


@settings(max_examples=100, deadline=None)
@given(
    st.lists(pids, min_size=1, max_size=10, unique=True),
    st.integers(min_value=0, max_value=10),
    ring_ids,
)
def test_commit_roundtrip(members, rotation, ring_id):
    token = CommitToken(ring_id=ring_id, members=tuple(members), rotation=rotation)
    for pid in members[: len(members) // 2]:
        token.infos[pid] = MemberInfo(old_ring_id=pid + 1, old_aru=pid, high_seq=pid * 2)
    decoded = decode_any(encode_any(token))
    assert decoded.members == token.members
    assert decoded.infos == token.infos


@settings(max_examples=100, deadline=None)
@given(data_messages, ring_ids)
def test_recovered_roundtrip(message, old_ring):
    recovered = RecoveredMessage(old_ring_id=old_ring, message=message)
    decoded = decode_any(encode_any(recovered))
    assert decoded == recovered


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        RecoveryStatus,
        sender=pids,
        new_ring_id=ring_ids,
        old_ring_id=ring_ids,
        have=st.lists(seqs, max_size=30).map(tuple),
        complete=st.booleans(),
    )
)
def test_status_roundtrip(status):
    assert decode_any(encode_any(status)) == status


@settings(max_examples=100, deadline=None)
@given(st.builds(BeaconMessage, sender=pids, ring_id=ring_ids))
def test_beacon_roundtrip(beacon):
    assert decode_any(encode_any(beacon)) == beacon


@settings(max_examples=100, deadline=None)
@given(names, st.lists(names, max_size=5).map(tuple), payloads)
def test_app_envelope_roundtrip(sender, groups, payload):
    envelope = AppData(sender=sender, groups=groups, payload=payload)
    assert decode_envelope(envelope.encode()) == envelope


@settings(max_examples=100, deadline=None)
@given(names, names)
def test_group_ops_roundtrip(member, group):
    assert decode_envelope(GroupJoin(member, group).encode()) == GroupJoin(member, group)
    assert decode_envelope(GroupLeave(member, group).encode()) == GroupLeave(member, group)


@settings(max_examples=100, deadline=None)
@given(st.lists(payloads, max_size=8).map(tuple))
def test_packed_roundtrip(items):
    packed = Packed(items)
    assert decode_envelope(packed.encode()) == packed


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=2**40),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=201),
    payloads,
)
def test_fragment_roundtrip(frag_id, index, total, chunk):
    fragment = Fragment(frag_id=frag_id, index=index, total=max(total, index + 1),
                        chunk=chunk)
    assert decode_envelope(fragment.encode()) == fragment


# ---------------------------------------------------------------------------
# Byte stability: the single-buffer pack_into encoders must emit exactly the
# bytes the original header-plus-payload concatenation produced, so recorded
# traffic and mixed-version peers stay wire-compatible.
# ---------------------------------------------------------------------------


def _reference_encode_data(message):
    header = _DATA_HEADER.pack(
        MAGIC,
        TYPE_DATA,
        int(message.service),
        1 if message.post_token else 0,
        message.seq,
        message.pid,
        message.round,
        message.ring_id,
        message.timestamp if message.timestamp is not None else -1.0,
        len(message.payload),
    )
    return header + message.payload


def _reference_encode_token(token):
    header = _TOKEN_HEADER.pack(
        MAGIC,
        TYPE_TOKEN,
        token.ring_id,
        token.token_id,
        token.seq,
        token.aru,
        token.aru_lowered_by if token.aru_lowered_by is not None else -1,
        token.fcc,
        token.rotation,
        len(token.rtr),
    )
    return header + struct.pack(f"!{len(token.rtr)}Q", *token.rtr)


@settings(max_examples=150, deadline=None)
@given(data_messages)
def test_data_encoding_byte_stable(message):
    assert encode(message) == _reference_encode_data(message)


@settings(max_examples=150, deadline=None)
@given(tokens)
def test_token_encoding_byte_stable(token):
    assert encode(token) == _reference_encode_token(token)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=2**40),
    st.integers(min_value=0, max_value=200),
    payloads,
)
def test_fragment_encoding_byte_stable(frag_id, index, chunk):
    total = index + 1
    reference = _FRAGMENT_HEADER.pack(ENV_FRAGMENT, frag_id, index, total) + chunk
    assert encode_fragment(frag_id, index, total, chunk) == reference
    # memoryview chunks (the Fragmenter's zero-copy path) encode identically.
    assert encode_fragment(frag_id, index, total, memoryview(chunk)) == reference


@settings(max_examples=50, deadline=None)
@given(
    st.binary(min_size=1, max_size=8192),
    st.integers(min_value=16, max_value=1300),
)
def test_fragmenter_chunks_match_reference_and_reassemble(payload, chunk_size):
    fragmenter = Fragmenter(chunk_size=chunk_size)
    pieces = fragmenter.fragment(payload)
    if len(payload) <= chunk_size:
        assert pieces == [payload]
        return
    total = -(-len(payload) // chunk_size)
    assert len(pieces) == total
    reassembler = FragmentReassembler()
    result = None
    for piece in pieces:
        fragment = decode_envelope(piece)
        expected_chunk = payload[
            fragment.index * chunk_size : (fragment.index + 1) * chunk_size
        ]
        assert fragment.chunk == expected_chunk
        # The memoryview-sliced envelope equals a from-scratch encode.
        assert piece == Fragment(
            fragment.frag_id, fragment.index, total, expected_chunk
        ).encode()
        result = reassembler.accept(0, fragment)
    assert result == payload
    assert reassembler.messages_reassembled == 1

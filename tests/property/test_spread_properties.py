"""Property-based tests for the Spread layer: packing and fragmentation
compose to a lossless, order-preserving pipeline."""

from hypothesis import given, settings, strategies as st

from repro.spread.fragmentation import Fragmenter, FragmentReassembler
from repro.spread.groups import GroupDirectory
from repro.spread.packing import Packer, unpack_payload
from repro.spread.wire import AppData, Fragment, decode_envelope

payload_lists = st.lists(st.binary(min_size=0, max_size=800), min_size=0, max_size=25)


@settings(max_examples=100, deadline=None)
@given(payload_lists, st.integers(min_value=64, max_value=1400))
def test_pack_unpack_preserves_order_and_content(payloads, budget):
    packer = Packer(budget=budget)
    envelopes = [AppData("s#0", ("g",), p).encode() for p in payloads]
    packets = []
    for envelope in envelopes:
        packets.extend(packer.add(envelope))
    packets.extend(packer.flush())
    unpacked = [item for packet in packets for item in unpack_payload(packet)]
    assert unpacked == envelopes
    # every emitted packet respects the budget unless a single envelope
    # alone exceeded it
    for packet in packets:
        items = unpack_payload(packet)
        if len(items) > 1:
            assert len(packet) <= budget


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=20000), st.integers(min_value=16, max_value=1400))
def test_fragment_reassemble_roundtrip(data, chunk_size):
    fragmenter = Fragmenter(chunk_size=chunk_size)
    reassembler = FragmentReassembler()
    pieces = fragmenter.fragment(data)
    if len(pieces) == 1:
        assert pieces[0] == data
        return
    result = None
    for piece in pieces:
        fragment = decode_envelope(piece)
        assert isinstance(fragment, Fragment)
        assert len(fragment.chunk) <= chunk_size
        result = reassembler.accept(0, fragment)
    assert result == data
    assert reassembler.messages_reassembled == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["join", "leave"]),
            st.integers(min_value=0, max_value=5),   # client index
            st.integers(min_value=0, max_value=3),   # daemon
            st.sampled_from(["g1", "g2", "g3"]),
        ),
        max_size=60,
    )
)
def test_group_directory_replicas_converge(operations):
    """Two directories fed the same ordered operations agree exactly —
    the property that makes totally ordered joins/leaves sufficient."""
    left, right = GroupDirectory(), GroupDirectory()
    for op, client, daemon, group in operations:
        member = f"c{client}#{daemon}"
        if op == "join":
            left.apply_join(member, group)
            right.apply_join(member, group)
        else:
            left.apply_leave(member, group)
            right.apply_leave(member, group)
    for group in ("g1", "g2", "g3"):
        assert left.members(group) == right.members(group)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.sampled_from(["a", "b"])),
        max_size=40,
    ),
    st.frozensets(st.integers(min_value=0, max_value=5), max_size=6),
)
def test_configuration_prune_removes_exactly_dead_daemons(joins, alive):
    directory = GroupDirectory()
    for daemon, group in joins:
        directory.apply_join(f"x#{daemon}", group)
    directory.apply_configuration(alive)
    for group in ("a", "b"):
        for member in directory.members(group):
            assert int(member.split("#")[1]) in alive

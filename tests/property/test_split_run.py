"""Property: the byte rule (``transport_core.split_run``) cuts a run,
greedily and in order, into sub-runs that each fit one datagram — and
what it cuts is exactly what ``encode_run`` puts on the wire."""

from hypothesis import given, settings, strategies as st

from repro.core.codec import BATCH_ITEM_OVERHEAD, DATA_HEADER_BYTES, encode_data
from repro.core.transport_core import (
    batch_wire_size,
    decode_data_port,
    encode_run,
    split_run,
)
from repro.runtime.transport import DATAGRAM_BUDGET
from tests.conftest import data_message

#: Mostly datagram-sized payloads (so sub-runs of several messages
#: occur), with the occasional one past the UDP maximum.
payload_sizes = st.lists(
    st.one_of(st.integers(0, 3_000), st.integers(0, 70_000)), min_size=1, max_size=12
)
budgets = st.integers(DATA_HEADER_BYTES, 70_000)


def _run(sizes):
    return [
        data_message(seq, payload=bytes([seq % 251]) * size)
        for seq, size in enumerate(sizes, start=1)
    ]


@settings(max_examples=150, deadline=None)
@given(sizes=payload_sizes, budget=budgets)
def test_sub_runs_partition_the_run_and_fit_the_budget(sizes, budget):
    run = _run(sizes)
    sub_runs = split_run(run, budget)
    # In order, nothing lost, nothing repeated (the very same objects).
    flat = [message for sub_run in sub_runs for message in sub_run]
    assert len(flat) == len(run)
    assert all(mine is theirs for mine, theirs in zip(flat, run))
    for sub_run in sub_runs:
        assert len(sub_run) >= 1
        wire = encode_run(sub_run)
        if len(sub_run) == 1:
            # Travels alone, however large, as a plain data datagram.
            assert wire == encode_data(sub_run[0])
            assert decode_data_port(wire) == sub_run[0]
        else:
            assert len(wire) == batch_wire_size(sub_run, DATA_HEADER_BYTES)
            assert len(wire) <= budget
            assert decode_data_port(wire) == list(sub_run)
    # Greedy: no two neighbours would have fitted one datagram.
    for left, right in zip(sub_runs, sub_runs[1:]):
        together = list(left) + list(right)
        assert batch_wire_size(together, DATA_HEADER_BYTES) > budget


@given(sizes=payload_sizes)
def test_a_budget_nothing_exceeds_leaves_the_run_whole(sizes):
    run = _run(sizes)
    (whole,) = split_run(run, batch_wire_size(run, DATA_HEADER_BYTES))
    assert whole is run


def test_one_jumbo_frame_holds_eight_one_kilobyte_messages():
    """The arithmetic DATAGRAM_BUDGET's comment quotes: the saturated
    fleet's 1087-byte batch items go eight to a datagram, not nine."""
    item_payload = 1087 - BATCH_ITEM_OVERHEAD - DATA_HEADER_BYTES
    run = _run([item_payload] * 20)
    assert [len(s) for s in split_run(run, DATAGRAM_BUDGET)] == [8, 8, 4]

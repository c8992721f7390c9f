"""Unit tests for the participant receive buffer."""

from repro.core.buffer import MessageBuffer
from tests.conftest import data_message


def test_local_aru_advances_on_contiguous_insert():
    buffer = MessageBuffer()
    buffer.insert(data_message(1))
    buffer.insert(data_message(2))
    assert buffer.local_aru == 2


def test_local_aru_waits_for_gap():
    buffer = MessageBuffer()
    buffer.insert(data_message(1))
    buffer.insert(data_message(3))
    assert buffer.local_aru == 1
    buffer.insert(data_message(2))
    assert buffer.local_aru == 3


def test_duplicate_insert_rejected():
    buffer = MessageBuffer()
    assert buffer.insert(data_message(1))
    assert not buffer.insert(data_message(1))
    assert buffer.duplicates == 1


def test_max_seq_tracks_highest():
    buffer = MessageBuffer()
    buffer.insert(data_message(5))
    buffer.insert(data_message(2))
    assert buffer.max_seq == 5


def test_missing_between():
    buffer = MessageBuffer()
    buffer.insert(data_message(1))
    buffer.insert(data_message(4))
    assert buffer.missing_between(0, 5) == [2, 3, 5]
    assert buffer.missing_between(1, 4) == [2, 3]
    assert buffer.missing_between(4, 4) == []
    assert buffer.missing_between(5, 3) == []


def test_discard_up_to_removes_and_remembers():
    buffer = MessageBuffer()
    for seq in range(1, 6):
        buffer.insert(data_message(seq))
    dropped = buffer.discard_up_to(3)
    assert dropped == 3
    assert buffer.get(2) is None
    assert buffer.get(4) is not None
    # discarded seqs still count as "seen": duplicates rejected
    assert not buffer.insert(data_message(2))
    assert 2 in buffer
    assert buffer.discarded_up_to == 3


def test_discard_is_idempotent():
    buffer = MessageBuffer()
    buffer.insert(data_message(1))
    assert buffer.discard_up_to(1) == 1
    assert buffer.discard_up_to(1) == 0


def test_discard_does_not_regress():
    buffer = MessageBuffer()
    for seq in range(1, 4):
        buffer.insert(data_message(seq))
    buffer.discard_up_to(2)
    buffer.discard_up_to(1)  # lower value: no-op
    assert buffer.discarded_up_to == 2


def test_len_counts_held_messages():
    buffer = MessageBuffer()
    buffer.insert(data_message(1))
    buffer.insert(data_message(2))
    buffer.discard_up_to(1)
    assert len(buffer) == 1

"""Unit tests for the instant-network test harness itself."""

import pytest

from repro.core.original import OriginalRingParticipant
from repro.core.participant import AcceleratedRingParticipant
from tests.conftest import make_ring, submit_n
from tests.instant_network import InstantNetwork


def run_ring(cls, n=3, per_sender=7, drop=None, max_rounds=100):
    participants = make_ring(cls, n=n)
    for participant in participants:
        submit_n(participant, per_sender)
    network = InstantNetwork(participants, drop_data=drop)
    network.inject_initial_token()
    network.run(max_rounds=max_rounds)
    return network


def test_all_messages_delivered_everywhere_accelerated():
    network = run_ring(AcceleratedRingParticipant)
    for pid in network.ring:
        assert len(network.delivered[pid]) == 21
    network.assert_total_order()
    network.assert_gapless()


def test_all_messages_delivered_everywhere_original():
    network = run_ring(OriginalRingParticipant)
    for pid in network.ring:
        assert len(network.delivered[pid]) == 21
    network.assert_total_order()


def test_post_token_interleaving_occurs():
    # The defining accelerated behaviour: the successor processes the token
    # before the predecessor's post-token messages arrive.  In the instant
    # network this manifests as data messages with post_token=True.
    network = run_ring(AcceleratedRingParticipant)
    post = [m for log in network.delivered.values() for m in log if m.post_token]
    assert post


def test_empty_ring_rejected():
    with pytest.raises(ValueError):
        InstantNetwork([])


def test_assert_total_order_detects_divergence():
    network = run_ring(AcceleratedRingParticipant)
    network.delivered[0].reverse()
    with pytest.raises(AssertionError):
        network.assert_total_order()


def test_assert_gapless_detects_gap():
    network = run_ring(AcceleratedRingParticipant)
    del network.delivered[1][3]
    with pytest.raises(AssertionError):
        network.assert_gapless()


def test_runaway_guard():
    participants = make_ring(AcceleratedRingParticipant)
    network = InstantNetwork(participants)
    network.inject_initial_token()
    with pytest.raises(RuntimeError):
        network.run(max_rounds=10**9, max_steps=100)


def test_deterministic_drop_recovers():
    dropped = {"count": 0}

    def drop(src, dst, message):
        if message.seq == 5 and dst == 2 and dropped["count"] == 0:
            dropped["count"] += 1
            return True
        return False

    network = run_ring(AcceleratedRingParticipant, drop=drop)
    assert dropped["count"] == 1
    network.assert_total_order()
    network.assert_gapless()
    assert len(network.delivered[2]) == 21


def test_run_until_delivered_stops_early():
    participants = make_ring(AcceleratedRingParticipant)
    for participant in participants:
        submit_n(participant, 2)
    network = InstantNetwork(participants)
    network.inject_initial_token()
    network.run_until_delivered(total_messages=6, max_rounds=50)
    assert all(len(log) >= 6 for log in network.delivered.values())

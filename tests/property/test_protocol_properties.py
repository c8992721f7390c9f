"""Property-based tests of the ordering protocol's core invariants.

Random submission patterns, window configurations, and loss patterns are
run through the instant-network harness; the invariants are those the
paper's correctness argument rests on (§II, §III-A):

* every participant delivers the same messages in the same total order;
* the order has no gaps and respects per-sender FIFO;
* both protocols deliver exactly the same message set;
* loss never breaks agreement, only delays it.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import ProtocolConfig, TokenPriorityMethod
from repro.core.messages import DeliveryService
from repro.core.original import OriginalRingParticipant
from repro.core.participant import AcceleratedRingParticipant
from tests.instant_network import InstantNetwork

windows = st.integers(min_value=1, max_value=8).flatmap(
    lambda personal: st.tuples(
        st.just(personal), st.integers(min_value=0, max_value=personal)
    )
)

ring_sizes = st.integers(min_value=1, max_value=6)
submission_plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # sender index (mod ring size)
        st.sampled_from(
            [DeliveryService.AGREED, DeliveryService.SAFE, DeliveryService.FIFO]
        ),
    ),
    min_size=0,
    max_size=60,
)


def build(ring_size, personal, accel, plan, drop=None, accelerated=True):
    config = ProtocolConfig(
        personal_window=personal,
        accelerated_window=accel if accelerated else 0,
        global_window=max(personal * 8, personal),
        priority_method=TokenPriorityMethod.AGGRESSIVE
        if accelerated
        else TokenPriorityMethod.NEVER,
    )
    cls = AcceleratedRingParticipant if accelerated else OriginalRingParticipant
    ring = list(range(ring_size))
    participants = [cls(pid, ring, config) for pid in ring]
    for index, (sender, service) in enumerate(plan):
        participants[sender % ring_size].submit(
            payload=bytes([index % 256]), service=service
        )
    network = InstantNetwork(participants, drop_data=drop)
    network.inject_initial_token()
    network.run(max_rounds=400)
    return network, len(plan)


@settings(max_examples=60, deadline=None)
@given(ring_sizes, windows, submission_plans)
def test_total_order_and_completeness(ring_size, window_pair, plan):
    personal, accel = window_pair
    network, total = build(ring_size, personal, accel, plan)
    network.assert_total_order()
    network.assert_gapless()
    for pid in network.ring:
        assert len(network.delivered[pid]) == total


@settings(max_examples=40, deadline=None)
@given(ring_sizes, windows, submission_plans)
def test_per_sender_fifo(ring_size, window_pair, plan):
    personal, accel = window_pair
    network, _ = build(ring_size, personal, accel, plan)
    for pid in network.ring:
        per_sender = {}
        for message in network.delivered[pid]:
            last = per_sender.get(message.pid, -1)
            assert message.seq > last
            per_sender[message.pid] = message.seq


@settings(max_examples=30, deadline=None)
@given(ring_sizes, windows, submission_plans)
def test_original_delivers_same_set_as_accelerated(ring_size, window_pair, plan):
    personal, accel = window_pair
    accel_net, _ = build(ring_size, personal, accel, plan, accelerated=True)
    orig_net, _ = build(ring_size, personal, accel, plan, accelerated=False)
    for pid in accel_net.ring:
        accel_payloads = [(m.pid, m.payload) for m in accel_net.delivered[pid]]
        orig_payloads = [(m.pid, m.payload) for m in orig_net.delivered[pid]]
        assert sorted(accel_payloads) == sorted(orig_payloads)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    windows,
    submission_plans,
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.0, max_value=0.4),
)
def test_random_loss_never_breaks_agreement(
    ring_size, window_pair, plan, seed, loss_rate
):
    personal, accel = window_pair
    rng = random.Random(seed)

    def drop(src, dst, message):
        return rng.random() < loss_rate

    network, total = build(ring_size, personal, accel, plan, drop=drop)
    network.assert_total_order()
    network.assert_gapless()
    for pid in network.ring:
        assert len(network.delivered[pid]) == total


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    submission_plans,
    st.integers(min_value=0, max_value=2**31),
)
def test_safe_messages_delivered_at_same_position_everywhere(
    ring_size, plan, seed
):
    rng = random.Random(seed)
    network, _ = build(
        ring_size, 4, 4, plan, drop=lambda s, d, m: rng.random() < 0.15
    )
    positions = []
    for pid in network.ring:
        positions.append(
            [i for i, m in enumerate(network.delivered[pid])
             if m.service is DeliveryService.SAFE]
        )
    assert all(p == positions[0] for p in positions[1:])

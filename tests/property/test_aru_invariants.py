"""Property tests for the token aru's safety invariant.

The aru underpins Safe delivery and garbage collection: at the moment a
participant sends the token, the aru may never exceed what that
participant has actually received, and the safe-delivery limit may never
run ahead of the aru any member reported.  These are the invariants the
paper's stability argument rests on (§III-B2/B4).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import ProtocolConfig
from repro.core.events import SendToken
from repro.core.messages import DeliveryService
from repro.core.participant import AcceleratedRingParticipant
from tests.instant_network import InstantNetwork


class _AruSpy(InstantNetwork):
    """Records (sender, token.aru, sender local_aru) at every token send
    and every participant's safe limit against its receptions."""

    def __init__(self, participants, drop_data=None):
        super().__init__(participants, drop_data=drop_data)
        self.violations = []

    def _apply(self, source, effects):
        for effect in effects:
            if isinstance(effect, SendToken):
                token = effect.token
                if token.aru > source.local_aru:
                    self.violations.append(
                        f"{source.pid} sent aru {token.aru} > local {source.local_aru}"
                    )
                if token.aru > token.seq:
                    self.violations.append(
                        f"{source.pid} sent aru {token.aru} > seq {token.seq}"
                    )
        super()._apply(source, effects)


plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.sampled_from([DeliveryService.AGREED, DeliveryService.SAFE]),
    ),
    max_size=50,
)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    plans,
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.0, max_value=0.3),
)
def test_token_aru_never_exceeds_senders_receipts(ring_size, plan, seed, loss):
    config = ProtocolConfig(personal_window=4, accelerated_window=4,
                            global_window=32)
    ring = list(range(ring_size))
    participants = [AcceleratedRingParticipant(pid, ring, config) for pid in ring]
    for sender, service in plan:
        participants[sender % ring_size].submit(payload=b"m", service=service)
    rng = random.Random(seed)
    spy = _AruSpy(participants, drop_data=lambda s, d, m: rng.random() < loss)
    spy.inject_initial_token()
    spy.run(max_rounds=300)
    assert spy.violations == []


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    plans,
    st.integers(min_value=0, max_value=2**31),
)
def test_safe_limit_only_covers_universally_received_messages(ring_size, plan, seed):
    """Whenever any participant's safe limit reaches seq s, every
    participant has received message s (the stability property)."""
    config = ProtocolConfig(personal_window=4, accelerated_window=4,
                            global_window=32)
    ring = list(range(ring_size))
    participants = [AcceleratedRingParticipant(pid, ring, config) for pid in ring]
    for sender, service in plan:
        participants[sender % ring_size].submit(payload=b"m", service=service)
    rng = random.Random(seed)

    violations = []

    class _SafeSpy(InstantNetwork):
        def _apply(self, source, effects):
            super()._apply(source, effects)
            limit = source.safe_limit
            for peer in self.participants.values():
                # peer must have received (possibly not yet processed from
                # the queue) everything at or below the limit; since the
                # instant network delivers synchronously before the next
                # dispatch, check against buffer contents plus queue.
                if limit > 0 and peer.local_aru < limit:
                    pending = {
                        message.seq
                        for dst, kind, message in self._queue
                        if kind == "data" and dst == peer.pid
                    }
                    missing = [
                        seq
                        for seq in range(peer.local_aru + 1, limit + 1)
                        if seq not in pending and peer.buffer.get(seq) is None
                    ]
                    if missing:
                        violations.append(
                            f"{source.pid} safe_limit {limit} but {peer.pid} "
                            f"missing {missing[:5]}"
                        )

    spy = _SafeSpy(participants)
    spy.inject_initial_token()
    spy.run(max_rounds=200)
    assert violations == []

"""Cross-participant flow-control and fairness invariants.

These run small rings through the instant network with instrumentation
on the token, checking the invariants that make the token usable for
flow control (paper §III-B): the global window bounds the total traffic
per rotation, the personal window bounds each sender, and backlogged
senders share capacity fairly.
"""

from repro.core.config import ProtocolConfig
from repro.core.events import SendToken
from repro.core.participant import AcceleratedRingParticipant
from tests.conftest import submit_n
from tests.instant_network import InstantNetwork


def build_backlogged_ring(n=4, personal=5, global_window=12, backlog=40):
    config = ProtocolConfig(
        personal_window=personal,
        accelerated_window=personal,
        global_window=global_window,
    )
    ring = list(range(n))
    participants = [AcceleratedRingParticipant(pid, ring, config) for pid in ring]
    for participant in participants:
        submit_n(participant, backlog)
    return participants


def test_global_window_bounds_traffic_per_rotation():
    participants = build_backlogged_ring(global_window=12)
    network = InstantNetwork(participants)
    network.inject_initial_token()
    network.run(max_rounds=60)
    # fcc on the token can never exceed the global window
    # (validate post-hoc: every participant sent at most personal_window
    # per round, and rounds x senders is bounded by deliveries)
    total = sum(p.messages_originated for p in participants)
    rotations = min(p.rounds_completed for p in participants)
    assert total <= 12 * (rotations + 1)


def test_personal_window_bounds_each_round():
    participants = build_backlogged_ring(personal=5, global_window=100)
    flows = []
    original_on_token = AcceleratedRingParticipant.on_token

    def counting_on_token(self, token):
        before = self.messages_originated
        effects = original_on_token(self, token)
        flows.append(self.messages_originated - before)
        return effects

    AcceleratedRingParticipant.on_token = counting_on_token
    try:
        network = InstantNetwork(participants)
        network.inject_initial_token()
        network.run(max_rounds=40)
    finally:
        AcceleratedRingParticipant.on_token = original_on_token
    assert flows and max(flows) <= 5


def test_backlogged_senders_share_evenly():
    participants = build_backlogged_ring(n=4, personal=5, global_window=100,
                                         backlog=30)
    network = InstantNetwork(participants)
    network.inject_initial_token()
    network.run(max_rounds=200)
    originated = [p.messages_originated for p in participants]
    assert max(originated) == min(originated) == 30
    network.assert_total_order()


def test_token_fcc_reflects_global_traffic():
    participants = build_backlogged_ring(n=3, personal=4, global_window=9)
    seen_fcc = []

    class Spy(InstantNetwork):
        def _apply(self, source, effects):
            for effect in effects:
                if isinstance(effect, SendToken):
                    seen_fcc.append(effect.token.fcc)
            super()._apply(source, effects)

    network = Spy(participants)
    network.inject_initial_token()
    network.run(max_rounds=40)
    assert seen_fcc
    assert max(seen_fcc) <= 9


def test_starved_sender_catches_up_after_contention():
    # Two heavy senders saturate the global window; a third with a small
    # queue still gets everything through eventually.
    config = ProtocolConfig(personal_window=8, accelerated_window=8,
                            global_window=10)
    ring = [0, 1, 2]
    participants = [AcceleratedRingParticipant(pid, ring, config) for pid in ring]
    submit_n(participants[0], 50)
    submit_n(participants[1], 50)
    submit_n(participants[2], 5)
    network = InstantNetwork(participants)
    network.inject_initial_token()
    network.run(max_rounds=300)
    assert participants[2].pending_count == 0
    network.assert_gapless()
    for pid in ring:
        assert len(network.delivered[pid]) == 105

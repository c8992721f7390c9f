"""Observer attached == observer absent, effect for effect.

``AcceleratedRingParticipant.on_token`` skips the flow-control plan when
nothing is queued — unless an observer is attached, which is told the
plan on every visit.  The two configurations therefore take different
branches through the hot path on every idle token, and must still emit
the same effects.  A counting observer forces the planning branch;
seeded loss makes the runs cover retransmission, aru lowering and Safe
delivery as well as idle rotations.
"""

import random

import pytest

from repro.core.config import ProtocolConfig
from repro.core.events import MulticastData, SendToken
from repro.core.messages import DeliveryService
from repro.core.original import OriginalRingParticipant
from repro.core.participant import AcceleratedRingParticipant
from repro.net.loss import UniformLoss
from repro.obs.observer import ProtocolObserver
from repro.sim.build import ClusterBuilder
from repro.sim.membership_driver import MembershipHost
from tests.instant_network import InstantNetwork


class CountingObserver(ProtocolObserver):
    """Counts two engine hooks; changes nothing."""

    def __init__(self):
        self.tokens = 0
        self.plans = 0
        self.idle_plans = 0

    def on_token_received(self, pid, token, now=None):
        self.tokens += 1

    def on_flow_control(self, pid, plan, token_fcc, now=None):
        self.plans += 1
        self.idle_plans += plan.queued == 0


def _token_fields(token):
    return (
        token.ring_id, token.token_id, token.seq, token.aru,
        token.aru_lowered_by, token.fcc, tuple(token.rtr), token.rotation,
    )


def _canonical(effect):
    if type(effect) is SendToken:
        return ("token", effect.destination, _token_fields(effect.token))
    if type(effect) is MulticastData:
        message = effect.message
        return ("data", message.seq, message.round, message.post_token, effect.retransmission)
    return (type(effect).__name__, tuple(m.seq for m in effect.messages), repr(effect))


class _BurstyNetwork(InstantNetwork):
    """Records every effect and feeds the ring a seeded burst of new
    submissions every few rotations, so loaded visits, visits that only
    retransmit or deliver, and wholly idle visits all occur in one run."""

    def __init__(self, participants, rng):
        super().__init__(participants, drop_data=lambda *_: rng.random() < 0.15)
        self._rng = rng
        self.stream = []

    def _apply(self, source, effects):
        self.stream.extend((source.pid, _canonical(effect)) for effect in effects)
        if self._token_dispatches % 48 == 1 and any(type(e) is SendToken for e in effects):
            for participant in self.participants.values():
                for index in range(self._rng.randrange(7)):
                    service = DeliveryService.SAFE if index % 3 == 0 else DeliveryService.AGREED
                    participant.submit(b"x", service)
        super()._apply(source, effects)


def _instant_run(cls, seed, observer):
    config = ProtocolConfig(personal_window=4, accelerated_window=2, global_window=10)
    ring = list(range(4))
    network = _BurstyNetwork(
        [cls(pid, ring, config, observer=observer) for pid in ring], random.Random(seed)
    )
    network.inject_initial_token()
    network.run(max_rounds=72)
    return network


@pytest.mark.parametrize("cls", [AcceleratedRingParticipant, OriginalRingParticipant])
@pytest.mark.parametrize("seed", range(8))
def test_instant_network_effect_streams_match(cls, seed):
    observer = CountingObserver()
    watched = _instant_run(cls, seed, observer)
    bare = _instant_run(cls, seed, None)
    assert watched.stream == bare.stream
    for pid in watched.ring:
        assert watched.delivered_seqs(pid) == bare.delivered_seqs(pid)
    # The run covered what it claims to: idle visits (planned only under
    # the observer), real traffic, and loss recovery.
    assert observer.plans == observer.tokens == 72 * 4
    assert 50 < observer.idle_plans < observer.plans - 20
    assert any(
        effect[0] == "data" and effect[-1] for _pid, effect in watched.stream
    ), "no retransmission in the run"
    watched.assert_total_order()
    assert len(watched.delivered[0]) > 30


@pytest.fixture
def sent_tokens(monkeypatch):
    """Every token a MembershipHost puts on the wire, with its sim time.
    (The executor binds ``backend.send_token`` at construction, so the
    class is patched before any cluster is built.)"""
    log = []
    send_token = MembershipHost.send_token

    def recording_send_token(self, token, destination):
        log.append((self.pid, destination, self.host.sim.now, _token_fields(token)))
        send_token(self, token, destination)

    monkeypatch.setattr(MembershipHost, "send_token", recording_send_token)
    return log


def _membership_run(seed, accelerated, observer, sent_tokens):
    del sent_tokens[:]
    builder = (
        ClusterBuilder()
        .hosts(4)
        .membership()
        .accelerated(accelerated)
        .loss(UniformLoss(rate=0.05, seed=seed))
    )
    if observer is not None:
        builder = builder.observe(observer)
    cluster = builder.build()
    cluster.start()
    cluster.run(0.06)
    assert set(cluster.states().values()) == {"operational"}
    rng = random.Random(seed)
    for _burst in range(3):
        for host in cluster.hosts.values():
            for index in range(rng.randrange(12)):
                host.submit(
                    payload_size=120,
                    service=DeliveryService.SAFE if index % 4 == 0 else DeliveryService.AGREED,
                )
        cluster.run(0.03)
    cluster.checker.check()
    return {
        "tokens": list(sent_tokens),
        "orders": {
            pid: [(m.pid, m.seq, m.service) for m in host.delivered]
            for pid, host in cluster.hosts.items()
        },
        "events": cluster.sim.events_processed,
        "pending": cluster.sim.pending_events,
        "stats": {
            pid: (
                host.controller.ordering.rounds_completed,
                host.controller.ordering.requests_made,
                host.controller.ordering.retransmissions_sent,
            )
            for pid, host in cluster.hosts.items()
        },
    }


@pytest.mark.parametrize("accelerated", [True, False])
@pytest.mark.parametrize("seed", [3, 5])
def test_membership_stack_runs_match(seed, accelerated, sent_tokens):
    observer = CountingObserver()
    watched = _membership_run(seed, accelerated, observer, sent_tokens)
    bare = _membership_run(seed, accelerated, None, sent_tokens)
    assert watched == bare
    assert len(watched["tokens"]) > 1000
    assert observer.idle_plans > 1000  # the simulated ring idles most of the time
    assert sum(requests for _r, requests, _s in watched["stats"].values()) > 0
    assert all(len(order) > 10 for order in watched["orders"].values())

"""Property: a delivery is a run, however the data arrived.

The coalescing layer feeds the engine whole datagrams through
``on_data_batch``; the uncoalesced path feeds the same messages one at a
time through ``on_data``.  Either way the engine's only delivery effect
is ``Deliver(messages, config_id, origin_ring)``, and no matter how the
arrival stream orders 1..n, repeats stragglers, mixes in foreign-ring
noise and SAFE blockers, and no matter how it is cut into datagrams:

* every run is contiguous, and the runs concatenate to 1..frontier — the
  same stream on both paths, with the same engine-visible counters;
* the bare engine leaves the run unattributed; under a
  ``MembershipController`` every run carries the id of the ring that
  ordered it — the installed ring's while Operational, the *old* ring's
  for what recovery delivers on the way to the next one — and the
  observer's one delivery hook fires once per run, with that run.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import ProtocolConfig
from repro.core.events import Deliver, DeliverConfiguration, SendToken
from repro.core.messages import DataMessage, DeliveryService
from repro.core.participant import AcceleratedRingParticipant
from repro.membership.controller import (
    TIMER_CONSENSUS,
    TIMER_TOKEN_LOSS,
    MemberState,
)
from repro.obs.observer import ProtocolObserver
from tests.unit.test_controller_recovery_edges import two_member_controller

RECEIVER = 0
SENDER = 1
RING = (RECEIVER, SENDER)
RING_ID = 1
FOREIGN_RING_ID = 99
SERVICES = [DeliveryService.AGREED, DeliveryService.FIFO, DeliveryService.SAFE]


class RunObserver(ProtocolObserver):
    """Records each delivered run as the hosting layer reports it."""

    def __init__(self):
        self.runs = []

    def on_deliver_batch(self, pid, messages, now=None):
        self.runs.append((pid, messages))


def _message(seq: int, service: DeliveryService, ring_id: int) -> DataMessage:
    return DataMessage(
        seq=seq,
        pid=SENDER,
        round=1,
        service=service,
        payload=b"payload-%d" % seq,
        ring_id=ring_id,
    )


@st.composite
def arrival_plans(draw):
    """``(n, services, arrivals)``: every seq of 1..n once, in any order,
    plus duplicates and foreign-ring noise; ``arrivals`` holds ``(seq,
    foreign)`` pairs."""
    n = draw(st.integers(min_value=0, max_value=30))
    services = draw(st.lists(st.sampled_from(SERVICES), min_size=n, max_size=n))
    arrivals = [(seq, False) for seq in range(1, n + 1)]
    if n:
        arrivals += draw(
            st.lists(st.tuples(st.integers(1, n), st.booleans()), max_size=20)
        )
    return n, services, draw(st.permutations(arrivals))


def _messages(services, arrivals, ring_id):
    return [
        _message(seq, services[seq - 1], FOREIGN_RING_ID if foreign else ring_id)
        for seq, foreign in arrivals
    ]


def _chunks(arrivals, chunk_seed):
    """``arrivals`` cut into datagrams of 1..8 messages."""
    rng = random.Random(chunk_seed)
    index = 0
    while index < len(arrivals):
        size = rng.randint(1, 8)
        yield arrivals[index : index + size]
        index += size


def _runs(effects, config_id):
    """The runs of an effect list, each checked for the one shape."""
    runs = [effect for effect in effects if effect.messages]
    for run in runs:
        assert type(run) is Deliver and type(run.messages) is tuple
        seqs = [m.seq for m in run.messages]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        assert run.config_id == run.origin_ring == config_id
    return runs


def _stream(runs):
    return [(m.pid, m.seq, m.payload, m.service) for run in runs for m in run.messages]


def _frontier(n, services):
    """Nothing makes a SAFE message stable here (no token passes), so
    delivery stops in front of the first one."""
    return services.index(DeliveryService.SAFE) if DeliveryService.SAFE in services else n


def _counters(participant: AcceleratedRingParticipant):
    return (
        participant.messages_delivered,
        participant._last_delivered,
        participant.buffer.local_aru,
        participant.token_has_priority,
    )


@given(plan=arrival_plans(), chunk_seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_batched_equals_per_message(plan, chunk_seed):
    n, services, arrivals = plan
    arrivals = _messages(services, arrivals, RING_ID)
    config = ProtocolConfig()
    scalar = AcceleratedRingParticipant(RECEIVER, RING, config, ring_id=RING_ID)
    batched = AcceleratedRingParticipant(RECEIVER, RING, config, ring_id=RING_ID)

    scalar_runs = []
    for message in arrivals:
        scalar_runs += _runs(scalar.on_data(message), None)
    batched_runs = []
    for chunk in _chunks(arrivals, chunk_seed):
        batched_runs += _runs(batched.on_data_batch(chunk), None)

    delivered = [seq for _, seq, _, _ in _stream(scalar_runs)]
    assert delivered == list(range(1, _frontier(n, services) + 1))
    assert _stream(batched_runs) == _stream(scalar_runs)
    assert _counters(batched) == _counters(scalar)
    # A datagram's messages are released together: never more runs.
    assert len(batched_runs) <= len(scalar_runs)


def _controller():
    observer = RunObserver()
    controller = two_member_controller(pid=RECEIVER)
    controller.observer = controller.ordering.observer = observer
    return controller, observer


def _fall_back_to_a_singleton(controller):
    """Token loss, then consensus timeouts until the silent peer is
    failed: recovery closes the old ring and installs ``{RECEIVER}``."""
    effects = controller.on_timer(TIMER_TOKEN_LOSS)
    while controller.state is not MemberState.OPERATIONAL:
        effects = controller.on_timer(TIMER_CONSENSUS)
    return effects


@given(plan=arrival_plans(), chunk_seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_under_a_controller_every_run_carries_the_ring_that_ordered_it(plan, chunk_seed):
    n, services, arrivals = plan
    scalar, scalar_observer = _controller()
    batched, batched_observer = _controller()
    old_ring = scalar.ring_id
    assert batched.ring_id == old_ring
    # Foreign-ring data would send an Operational controller to Gather
    # (a partition healing); here the noise is all duplicates.
    arrivals = _messages(services, [(seq, False) for seq, _ in arrivals], old_ring)

    scalar_runs = []
    for message in arrivals:
        scalar_runs += _runs(scalar.on_message(message), old_ring)
    batched_runs = []
    for chunk in _chunks(arrivals, chunk_seed):
        batched_runs += _runs(batched.on_data_batch(chunk), old_ring)
    operational = _stream(scalar_runs)
    assert [seq for _, seq, _, _ in operational] == list(
        range(1, _frontier(n, services) + 1)
    )
    assert _stream(batched_runs) == operational

    for controller, runs, observer in (
        (scalar, scalar_runs, scalar_observer),
        (batched, batched_runs, batched_observer),
    ):
        # Recovery delivers what the old ring ordered but could not
        # prove stable — still under the old ring's id, ahead of the new
        # ring's configuration, one message per run (it may skip holes).
        effects = _fall_back_to_a_singleton(controller)
        new_ring = controller.ring_id
        assert new_ring != old_ring
        recovered = _runs(effects, old_ring)
        assert all(len(run.messages) == 1 for run in recovered)
        installs = [
            index
            for index, effect in enumerate(effects)
            if type(effect) is DeliverConfiguration
            and effect.configuration.config_id == new_ring
        ]
        assert len(installs) == 1
        assert all(effects.index(run) < installs[0] for run in recovered)
        runs += recovered
        assert [seq for _, seq, _, _ in _stream(runs)] == list(range(1, n + 1))

        # The next ring's runs carry the next ring's id.
        controller.submit(payload=b"after", service=DeliveryService.AGREED)
        (token,) = [e.token for e in effects if type(e) is SendToken]
        (own,) = _runs(controller.on_message(token), new_ring)
        assert [m.payload for m in own.messages] == [b"after"]
        runs.append(own)

        # One hook call per run, with the run itself.
        assert observer.runs == [(RECEIVER, run.messages) for run in runs]
    assert _stream(batched_runs) == _stream(scalar_runs)

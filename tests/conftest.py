"""Shared test fixtures and helpers."""

from __future__ import annotations

import random

import pytest

from repro.core.config import ProtocolConfig
from repro.core.events import Deliver
from repro.core.messages import DataMessage, DeliveryService
from repro.net.simulator import Simulator

#: Module-level random functions a test must not call without seeding.
_GUARDED_DRAWS = (
    "random", "randint", "randrange", "getrandbits", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "betavariate",
    "expovariate", "gauss", "normalvariate", "lognormvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate",
)


@pytest.fixture(autouse=True)
def fail_on_unseeded_global_random(monkeypatch):
    """Fail any test that draws from the unseeded global ``random``.

    Such draws make a test's outcome depend on execution order and on
    whatever ran before it.  Tests must either use an explicit
    ``random.Random(seed)`` instance (preferred — it is immune to this
    guard) or call ``random.seed(<constant>)`` first, which disarms the
    tripwire for that test.  The pre-test state of the global generator
    is restored afterwards either way.
    """
    state = random.getstate()
    originals = {name: getattr(random, name) for name in _GUARDED_DRAWS}

    def disarm():
        for name, function in originals.items():
            setattr(random, name, function)

    def make_tripwire(name):
        def tripwire(*args, **kwargs):
            pytest.fail(
                f"test called random.{name}() without seeding the global "
                "generator; use an explicit random.Random(seed) instance "
                "(or call random.seed(<constant>) first)"
            )
        return tripwire

    real_seed = random.seed

    def seed_and_disarm(*args, **kwargs):
        disarm()
        return real_seed(*args, **kwargs)

    monkeypatch.setattr(random, "seed", seed_and_disarm)
    for name in _GUARDED_DRAWS:
        monkeypatch.setattr(random, name, make_tripwire(name))
    yield
    disarm()
    random.setstate(state)


@pytest.fixture(autouse=True)
def fail_on_hardcoded_ports(monkeypatch):
    """Fail any test that binds a hard-coded localhost port.

    Fixed port numbers collide across parallel test runs and leak state
    between tests (a crashed run leaves the port in TIME_WAIT).  Tests
    must either bind port 0 or reserve ports through
    :mod:`repro.runtime.ports` (``reserve_udp_port``/``reserve_tcp_port``
    / ``ephemeral_ring_addresses``), which records its grants in
    ``GRANTED_PORTS``.  ``socket.bind`` itself is a C slot we cannot
    patch, so the tripwire guards the entry points every runtime
    component goes through: asyncio's, and the UDP transport's own
    ``bind_udp``.
    """
    import asyncio.base_events as base_events

    from repro.runtime import transport
    from repro.runtime.ports import GRANTED_PORTS

    def check(port, where):
        if port in (None, 0) or port in GRANTED_PORTS:
            return
        pytest.fail(
            f"test bound hard-coded port {port} via {where}; bind port 0 "
            "or reserve through repro.runtime.ports "
            "(ephemeral_ring_addresses / reserve_tcp_port)"
        )

    real_datagram = base_events.BaseEventLoop.create_datagram_endpoint
    real_server = base_events.BaseEventLoop.create_server

    def guarded_datagram(self, protocol_factory, local_addr=None, **kwargs):
        if local_addr is not None:
            check(local_addr[1], "create_datagram_endpoint")
        return real_datagram(
            self, protocol_factory, local_addr=local_addr, **kwargs
        )

    def guarded_server(self, protocol_factory, host=None, port=None, **kwargs):
        check(port, "create_server")
        return real_server(self, protocol_factory, host, port, **kwargs)

    real_bind_udp = transport.bind_udp

    def guarded_bind_udp(host, port):
        check(port, "bind_udp")
        return real_bind_udp(host, port)

    monkeypatch.setattr(transport, "bind_udp", guarded_bind_udp)
    monkeypatch.setattr(
        base_events.BaseEventLoop, "create_datagram_endpoint", guarded_datagram
    )
    monkeypatch.setattr(
        base_events.BaseEventLoop, "create_server", guarded_server
    )


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_config() -> ProtocolConfig:
    return ProtocolConfig(personal_window=5, accelerated_window=3, global_window=40)


def make_ring(cls, n=3, config=None, ring_id=1):
    """Build a ring of participants of the given class."""
    config = config or ProtocolConfig(personal_window=5, accelerated_window=3, global_window=40)
    ring = list(range(n))
    return [cls(pid, ring, config, ring_id=ring_id) for pid in ring]


def data_message(
    seq: int,
    pid: int = 0,
    round: int = 1,
    service: DeliveryService = DeliveryService.AGREED,
    ring_id: int = 1,
    post_token: bool = False,
    payload: bytes = b"",
) -> DataMessage:
    return DataMessage(
        seq=seq,
        pid=pid,
        round=round,
        service=service,
        payload=payload,
        post_token=post_token,
        ring_id=ring_id,
    )


def submit_n(participant, n, service=DeliveryService.AGREED, payload=b"x"):
    for _ in range(n):
        participant.submit(payload=payload, service=service)


def drain_effects(effects, effect_type):
    """The effects of one type, in order."""
    return [effect for effect in effects if isinstance(effect, effect_type)]


def delivered_runs(effects):
    """The sequence numbers of each ``Deliver`` run, one list per run."""
    return [[m.seq for m in e.messages] for e in drain_effects(effects, Deliver)]

"""Unit tests for the loss models."""

import pytest

from repro.net.loss import BurstLoss, LossModel, NoLoss, PositionalLoss, UniformLoss
from repro.net.packet import Frame, PortKind
from tests.conftest import data_message


class ScriptedLoss(LossModel):
    """Deterministic loss for exact-trace tests: drop listed frame payloads.

    ``plan`` maps receiver id to a set of predicate keys; the predicate is
    evaluated against the frame's payload via ``key(payload)``.
    """

    def __init__(self, plan=None, key=None):
        self.plan = plan or {}
        self.key = key or (lambda payload: getattr(payload, "seq", None))
        self.dropped = {}

    def should_drop(self, receiver_id, frame):
        wanted = self.plan.get(receiver_id)
        if not wanted:
            return False
        value = self.key(frame.payload)
        if value in wanted:
            wanted.discard(value)
            self.dropped.setdefault(receiver_id, []).append(value)
            return True
        return False


def frame(seq=1, src=0):
    return Frame(src=src, dst=None, kind=PortKind.DATA, size=100,
                 payload=data_message(seq, pid=src))


class TestNoLoss:
    def test_never_drops(self):
        model = NoLoss()
        assert not any(model.should_drop(0, frame(i)) for i in range(100))


class TestUniformLoss:
    def test_rate_zero_never_drops(self):
        model = UniformLoss(0.0)
        assert not any(model.should_drop(0, frame(i)) for i in range(100))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            UniformLoss(1.0)
        with pytest.raises(ValueError):
            UniformLoss(-0.1)

    def test_empirical_rate_close_to_nominal(self):
        model = UniformLoss(0.25, seed=3)
        drops = sum(model.should_drop(0, frame(i)) for i in range(20000))
        assert 0.23 < drops / 20000 < 0.27

    def test_seed_reproducibility(self):
        a = UniformLoss(0.5, seed=9)
        b = UniformLoss(0.5, seed=9)
        decisions_a = [a.should_drop(0, frame(i)) for i in range(100)]
        decisions_b = [b.should_drop(0, frame(i)) for i in range(100)]
        assert decisions_a == decisions_b


class TestPositionalLoss:
    def test_only_configured_source_dropped(self):
        ring = [0, 1, 2, 3]
        model = PositionalLoss(ring, distance=1, rate=0.9999999, seed=1)
        # receiver 2 loses from host 1 (one position before it)
        assert model.should_drop(2, frame(src=1))
        assert not model.should_drop(2, frame(src=0))
        assert not model.should_drop(2, frame(src=3))

    def test_distance_wraps_around_ring(self):
        ring = [0, 1, 2, 3]
        model = PositionalLoss(ring, distance=3, rate=0.9999999)
        # receiver 0 loses from the host 3 positions before it: host 1
        assert model.should_drop(0, frame(src=1))

    def test_invalid_distance_rejected(self):
        with pytest.raises(ValueError):
            PositionalLoss([0, 1, 2], distance=0)
        with pytest.raises(ValueError):
            PositionalLoss([0, 1, 2], distance=3)

    def test_rate_respected(self):
        ring = [0, 1]
        model = PositionalLoss(ring, distance=1, rate=0.2, seed=5)
        drops = sum(model.should_drop(0, frame(src=1)) for _ in range(10000))
        assert 0.17 < drops / 10000 < 0.23


class TestBurstLoss:
    def test_burst_continues_after_entry(self):
        model = BurstLoss(enter_rate=0.99999, burst_length=1000000.0, seed=1)
        assert model.should_drop(0, frame(0))
        # still in the burst: everything drops
        assert all(model.should_drop(0, frame(i)) for i in range(1, 20))

    def test_zero_rate_never_enters(self):
        model = BurstLoss(enter_rate=0.0)
        assert not any(model.should_drop(0, frame(i)) for i in range(100))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BurstLoss(enter_rate=1.0)
        with pytest.raises(ValueError):
            BurstLoss(enter_rate=0.1, burst_length=0.5)

    def test_bursts_independent_per_receiver(self):
        model = BurstLoss(enter_rate=0.99999, burst_length=1e9, seed=1)
        model.should_drop(0, frame(0))
        # receiver 1 has its own state machine; the next call decides fresh
        # (it may or may not drop, but must not raise)
        model.should_drop(1, frame(0))


class TestScriptedLoss:
    def test_drops_exactly_listed_seqs_once(self):
        model = ScriptedLoss(plan={2: {5, 7}})
        assert model.should_drop(2, frame(5))
        assert model.should_drop(2, frame(7))
        # second copy (retransmission) passes
        assert not model.should_drop(2, frame(5))
        assert not model.should_drop(1, frame(5))
        assert model.dropped[2] == [5, 7]


class TestSharedRng:
    """One random.Random(seed) threads through every stochastic model, so
    mixed loss+fault runs are reproducible from a single seed."""

    def test_rng_instance_overrides_seed(self):
        import random

        rng_a = random.Random(42)
        rng_b = random.Random(42)
        a = UniformLoss(0.5, seed=999, rng=rng_a)
        b = UniformLoss(0.5, seed=111, rng=rng_b)
        assert [a.should_drop(0, frame(i)) for i in range(200)] == [
            b.should_drop(0, frame(i)) for i in range(200)
        ]

    def test_models_sharing_one_rng_are_jointly_reproducible(self):
        import random

        def decisions(seed):
            rng = random.Random(seed)
            uniform = UniformLoss(0.3, rng=rng)
            burst = BurstLoss(enter_rate=0.2, rng=rng)
            out = []
            for i in range(200):
                out.append(uniform.should_drop(0, frame(i)))
                out.append(burst.should_drop(1, frame(i)))
            return out

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_positional_accepts_rng(self):
        import random

        model = PositionalLoss([0, 1, 2], distance=1, rate=0.5, rng=random.Random(3))
        assert isinstance(model.should_drop(0, frame(src=2)), bool)

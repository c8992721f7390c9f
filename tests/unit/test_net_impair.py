"""Unit tests for the network impairment models."""

import pytest

from repro.net.impair import (
    DuplicateModel,
    IMPAIRMENT_NAMES,
    ImpairmentModel,
    JitterModel,
    ReorderModel,
    impairment_from_name,
)
from repro.net.packet import Frame, PortKind
from repro.net.simulator import Simulator


def _deliveries(model, frames, gap=1e-4, settle=1.0):
    sim = Simulator()
    seen = []
    deliver = model.wrap(0, lambda frame: seen.append(frame), sim)
    for index, frame in enumerate(frames):
        sim.schedule_at(index * gap, deliver, frame)
    sim.run(until=len(frames) * gap + settle)
    return seen


def _data(payload, src=1, dst=0):
    return Frame(src, dst, PortKind.DATA, 100, payload)


def test_base_model_is_identity():
    sim = Simulator()
    seen = []
    deliver = ImpairmentModel().wrap(0, seen.append, sim)
    frame = _data("a")
    deliver(frame)
    assert seen == [frame]


def test_factory_knows_every_name():
    for name in IMPAIRMENT_NAMES:
        assert impairment_from_name(name) is not None
    with pytest.raises(ValueError):
        impairment_from_name("gremlins")


def test_reorder_holds_and_releases():
    model = ReorderModel(rate=0.5, max_displacement=2, hold_timeout=10.0, seed=0)
    seen = _deliveries(model, [_data(i) for i in range(8)], settle=20.0)
    assert sorted(f.payload for f in seen) == list(range(8))
    assert [f.payload for f in seen] == [0, 1, 3, 2, 5, 4, 7, 6]
    assert model.frames_held == 3


def test_reorder_timeout_flushes_tail_holds():
    model = ReorderModel(rate=1.0, max_displacement=3, hold_timeout=0.002, seed=0)
    seen = _deliveries(model, [_data(0)], settle=1.0)
    assert [f.payload for f in seen] == [0]
    assert model.frames_flushed >= 1


def test_jitter_counts_and_bounds_delay():
    model = JitterModel(max_jitter=20e-6, seed=1)
    frames = [_data(i) for i in range(20)]
    seen = _deliveries(model, frames)
    assert len(seen) == 20
    assert model.frames_delayed == 20


@pytest.mark.parametrize("dst", [0, None], ids=["unicast", "multicast"])
def test_duplicate_delivers_the_same_frame_twice(dst):
    model = DuplicateModel(rate=1.0, seed=0)
    sim = Simulator()
    seen = []
    deliver = model.wrap(7, lambda frame: seen.append(frame), sim)
    original = _data("payload", dst=dst)
    deliver(original)
    sim.run_until_idle()
    first, second = seen
    assert first is original and second is original
    assert original.dst == dst  # the receiver's id is not written into it
    assert model.frames_duplicated == 1


@pytest.mark.parametrize("cls,kwargs", [
    (ReorderModel, {"rate": 0.0}),
    (ReorderModel, {"rate": 1.5}),
    (ReorderModel, {"rate": 0.5, "max_displacement": 0}),
    (DuplicateModel, {"rate": 0.0}),
    (DuplicateModel, {"rate": 2.0}),
    (JitterModel, {"max_jitter": 0.0}),
    (JitterModel, {"max_jitter": -1e-6}),
])
def test_parameter_validation(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)

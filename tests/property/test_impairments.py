"""Property-based checks on the network impairment models.

The impairment layer (:mod:`repro.net.impair`) must be *adverse but
deterministic*: for a fixed seed, a run under reordering/jitter/
duplication is byte-identical every time, every random draw goes through
the injected RNG (the conftest tripwire fails any test that touches the
unseeded global ``random``), and the reorder model's displacement bound
holds — a held frame is delivered after at most ``max_displacement``
later arrivals or its hold timeout, whichever comes first.

Set ``REPRO_SOAK=1`` to raise the hypothesis example budget from the
quick per-PR profile to a nightly-soak-sized one.
"""

import os
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.impair import (
    DuplicateModel,
    IMPAIRMENT_NAMES,
    JitterModel,
    ReorderModel,
    impairment_from_name,
)
from repro.net.packet import Frame, PortKind
from repro.net.simulator import Simulator

SOAK_PROFILE = os.environ.get("REPRO_SOAK") == "1"
EXAMPLES = 60 if SOAK_PROFILE else 10
RUN_EXAMPLES = 24 if SOAK_PROFILE else 4

NUM_HOSTS = 4


def _drive(model, frame_count, gap=1e-4, settle=1.0):
    """Push ``frame_count`` data frames through a wrapped deliver and
    return the observed (payload, time) sequence."""
    sim = Simulator()
    seen = []
    deliver = model.wrap(0, lambda frame: seen.append((frame.payload, sim.now)), sim)
    for index in range(frame_count):
        frame = Frame(1, 0, PortKind.DATA, 100, index)
        sim.schedule_at(index * gap, deliver, frame)
    sim.run(until=frame_count * gap + settle)
    return seen


impairment_names = st.sampled_from(IMPAIRMENT_NAMES)


@settings(
    max_examples=RUN_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(name=impairment_names, seed=st.integers(0, 2**16), count=st.integers(1, 40))
def test_impairments_are_byte_identical_per_seed(name, seed, count):
    first = _drive(impairment_from_name(name, seed=seed), count)
    second = _drive(impairment_from_name(name, seed=seed), count)
    assert first == second


@settings(
    max_examples=RUN_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(name=impairment_names, seed=st.integers(0, 2**16), count=st.integers(1, 40))
def test_rng_object_and_seed_construction_agree(name, seed, count):
    by_seed = _drive(impairment_from_name(name, seed=seed), count)
    by_rng = _drive(impairment_from_name(name, rng=random.Random(seed)), count)
    assert by_seed == by_rng


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**16),
    rate=st.floats(0.01, 1.0),
    max_displacement=st.integers(1, 6),
    count=st.integers(1, 60),
)
def test_reorder_displacement_is_bounded(seed, rate, max_displacement, count):
    # With a hold timeout far beyond the arrival gaps, the displacement
    # counter does all the releasing mid-stream; the settle window is
    # long enough for the end-of-stream holds to flush by timeout.
    model = ReorderModel(
        rate=rate, max_displacement=max_displacement, hold_timeout=10.0, seed=seed
    )
    seen = _drive(model, count, settle=20.0)
    order = [payload for payload, _ in seen]
    assert sorted(order) == list(range(count))  # nothing lost or duplicated
    for position, payload in enumerate(order):
        assert position - payload <= max_displacement


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**16), count=st.integers(1, 60))
def test_jitter_delays_but_preserves_content(seed, count):
    model = JitterModel(max_jitter=20e-6, seed=seed)
    gap = 1e-4
    seen = _drive(model, count, gap=gap)
    assert sorted(payload for payload, _ in seen) == list(range(count))
    for payload, when in seen:
        assert payload * gap <= when <= payload * gap + 20e-6 + 1e-12


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**16), rate=st.floats(0.01, 1.0), count=st.integers(1, 60))
def test_duplicate_only_adds_copies(seed, rate, count):
    model = DuplicateModel(rate=rate, seed=seed)
    seen = _drive(model, count)
    payloads = [payload for payload, _ in seen]
    assert count <= len(payloads) <= 2 * count
    for index in range(count):
        assert 1 <= payloads.count(index) <= 2
    assert model.frames_duplicated == len(payloads) - count


@settings(
    max_examples=RUN_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(name=impairment_names, seed=st.integers(0, 2**16))
def test_token_frames_pass_untouched(name, seed):
    # Impairments are data-plane only: control traffic must go straight
    # through with no delay and no RNG draw.
    sim = Simulator()
    model = impairment_from_name(name, seed=seed)
    seen = []
    deliver = model.wrap(0, lambda frame: seen.append((frame.payload, sim.now)), sim)
    before = model._rng.getstate()
    for index in range(10):
        frame = Frame(1, 0, PortKind.TOKEN, 60, index)
        sim.schedule_at(index * 1e-4, deliver, frame)
    sim.run(until=1.0)
    assert [payload for payload, _ in seen] == list(range(10))
    assert [when for _, when in seen] == [index * 1e-4 for index in range(10)]
    assert model._rng.getstate() == before

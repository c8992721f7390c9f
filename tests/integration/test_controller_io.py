"""The membership controller behaves as its predecessor did, and stays
inside its own table.

``tests/golden/controller_io_digests.json`` was recorded on the parent
of the PR that rewrote the controller as a transition table, by
``tests/controller_io.py``: per controller call, the effects a substrate
executes and the timers armed afterwards.  The chaos library (seed 7)
runs once here, recorded, and the same run says which transitions were
taken and which states each (state, event) row entered.
"""

import json
from types import SimpleNamespace

import pytest

from repro.obs.coverage import CoverageObserver
from repro.faults import scenarios
from repro.membership.controller import DATA_BATCH, TABLE, TRANSITIONS, MemberState
from repro.obs.observer import MetricsObserver
from tests.controller_io import (
    GOLDEN,
    ControllerIoRecorder,
    record_chaos,
    record_commit_timeout,
)

GOLDEN_DIGESTS = json.loads(GOLDEN.read_text())


def _pair(current):
    """The table key of the recorder's call in progress."""
    state, entry, args = current
    if entry == "on_message":
        return state, type(args[0])
    if entry == "on_timer":
        return state, args[0]
    if entry == "on_data_batch":
        return state, DATA_BATCH
    return None  # start()


@pytest.fixture(scope="module")
def chaos_library():
    run = SimpleNamespace(recorded={}, coverage=CoverageObserver(), entered={})

    class Observed(MetricsObserver):
        def on_membership_event(self, pid, event, detail=None, now=None):
            super().on_membership_event(pid, event, detail, now)
            run.coverage.on_membership_event(pid, event, detail, now)
            if event == "state_change":
                pair = _pair(ControllerIoRecorder.active.current)
                run.entered.setdefault(pair, set()).add(MemberState(detail["to"]))

    scenarios.MetricsObserver = Observed
    try:
        for name in sorted(scenarios.SCENARIOS):
            run.recorded[f"chaos:{name}"] = record_chaos(name)
    finally:
        scenarios.MetricsObserver = MetricsObserver
    return run


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_controller_io_is_the_parents(key, request):
    if key == "unit:commit-timeout":
        recorded = record_commit_timeout()
    else:
        recorded = request.getfixturevalue("chaos_library").recorded[key]
    assert recorded == GOLDEN_DIGESTS[key]


def test_the_golden_covers_the_library_and_the_ninth_edge():
    assert sorted(GOLDEN_DIGESTS) == sorted(
        [f"chaos:{name}" for name in scenarios.SCENARIOS] + ["unit:commit-timeout"]
    )
    # The stale-stash teardown (QUIRK_STASH) happens, once, in gc-stall.
    torn_down = {k: v["installs_torn_down"] for k, v in GOLDEN_DIGESTS.items()}
    assert sum(torn_down.values()) == torn_down["chaos:gc-stall"] == 1


def test_the_library_takes_every_edge_but_commit_to_gather(chaos_library):
    prefix = "coverage.membership.transition."
    taken = {
        tuple(MemberState(end) for end in name[len(prefix):].split("->"))
        for name in chaos_library.coverage.report().hits
        if name.startswith(prefix)
    }
    assert taken <= set(TRANSITIONS)
    assert set(TRANSITIONS) - taken == {(MemberState.COMMIT, MemberState.GATHER)}


def test_a_row_enters_only_the_states_it_declares(chaos_library):
    entered = dict(chaos_library.entered)
    assert entered.pop(None) == {MemberState.GATHER}  # start()
    for pair, states in entered.items():
        assert states <= set(TABLE[pair].enters), pair

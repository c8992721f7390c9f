"""The membership controller's transition table: every (state, event)
pair is written down, timers belong to states, the three quirks are
pinned by name, and docs/PROTOCOL.md §6 says what the code says."""

import copy
import itertools
import re
from pathlib import Path

import pytest

from repro.core.events import DeliverConfiguration, SendControl
from repro.core.messages import DataMessage
from repro.core.token import RegularToken
from repro.membership import controller as table
from repro.membership.controller import (
    DATA_BATCH,
    DROPPED,
    OWNS,
    TABLE,
    TIMER_COMMIT,
    TIMER_CONSENSUS,
    TIMER_GATHER_RESTART,
    TIMER_RECOVERY,
    TIMER_SETTLE,
    TRANSITIONS,
    MemberState,
    MembershipController,
)
from repro.membership.messages import (
    BeaconMessage,
    CommitToken,
    JoinMessage,
    MemberInfo,
    RecoveredMessage,
    RecoveryStatus,
)
from repro.membership.params import MembershipTimeouts
from repro.membership.ring_id import encode_ring_id
from tests.conftest import data_message
from tests.controller_io import SansIoHost

OPERATIONAL, GATHER, COMMIT, RECOVER = MemberState
MESSAGES = (
    RegularToken, DataMessage, JoinMessage, CommitToken,
    RecoveredMessage, RecoveryStatus, BeaconMessage,
)
TIMERS = tuple(sorted(value for name, value in vars(table).items() if name.startswith("TIMER_")))
EVENTS = MESSAGES + (DATA_BATCH,) + TIMERS
PAIRS = list(itertools.product(MemberState, EVENTS))
QUIRKS = {value for name, value in vars(table).items() if name.startswith("QUIRK_")}


def event_name(event) -> str:
    if event is DATA_BATCH:
        return "data batch"
    return event if isinstance(event, str) else event.__name__


def pair_id(pair) -> str:
    return f"{pair[0].value}-{event_name(pair[1])}"


# ----------------------------------------------------------------------
# Every pair is written down
# ----------------------------------------------------------------------


def test_there_are_sixty_eight_pairs_and_nothing_else_in_the_tables():
    assert len(TIMERS) == 9 and len(PAIRS) == 68
    assert set(TABLE) | DROPPED == set(PAIRS)


@pytest.mark.parametrize("pair", PAIRS, ids=pair_id)
def test_a_pair_is_a_row_xor_dropped(pair):
    assert (pair in TABLE) != (pair in DROPPED)


def join(sender, members, ring_seq=0):
    return JoinMessage(
        sender=sender, proc_set=frozenset(members), fail_set=frozenset(), ring_seq=ring_seq
    )


def fresh_info(pid):
    return MemberInfo(old_ring_id=encode_ring_id(0, pid), old_aru=0, high_seq=0)


def in_state(state: MemberState, pid: int = 1) -> SansIoHost:
    """A hosted controller (``pid`` 1 of a proposed ring {0, 1, 2}) in
    ``state``, with ``settle`` and ``gather_restart`` still armed
    wherever the quirks let them be."""
    controller = MembershipController(pid=pid)
    host = SansIoHost(controller)
    host.run(controller.start())
    if state is GATHER:
        return host
    for sender in (0, 2):
        host.run(controller.on_message(join(sender, {0, 1, 2})))
    assert TIMER_SETTLE in host.armed
    token = CommitToken(ring_id=encode_ring_id(1, 0), members=(0, 1, 2))
    token.infos[0] = fresh_info(0)
    host.run(controller.on_message(token))  # first pass: ours is the second info of three
    if state is not COMMIT:
        # Second pass.  Sharing pid 2's old ring, we must wait for its
        # status in Recover; with an old ring of our own, nobody: install.
        token.infos[1] = fresh_info(1)
        token.infos[2] = fresh_info(1 if state is RECOVER else 2)
        host.run(controller.on_message(token))
    assert controller.state is state
    return host


def sample(event, controller):
    """An instance of ``event`` that is addressed to ``controller`` and
    is not stale, so that only its (state, event) pair decides its fate."""
    foreign = encode_ring_id(77, 5)
    if event in TIMERS:
        return event
    if event is DATA_BATCH:
        return [data_message(1, pid=5, ring_id=foreign)]
    return {
        RegularToken: lambda: RegularToken(ring_id=foreign),
        DataMessage: lambda: data_message(1, pid=5, ring_id=foreign),
        JoinMessage: lambda: join(5, {5, controller.pid}, ring_seq=controller.highest_ring_seq),
        CommitToken: lambda: CommitToken(ring_id=foreign, members=(0, 1, 2)),
        RecoveredMessage: lambda: RecoveredMessage(encode_ring_id(0, 1), data_message(1, pid=5)),
        RecoveryStatus: lambda: RecoveryStatus(5, foreign, foreign, (), False),
        BeaconMessage: lambda: BeaconMessage(sender=5, ring_id=foreign),
    }[event]()


def feed(controller, event, what):
    if event in TIMERS:
        return controller.on_timer(what)
    if event is DATA_BATCH:
        return controller.on_data_batch(what)
    return controller.on_message(what)


def fields(controller):
    """Everything the controller holds but its engine and its rng (whose
    state the callers compare themselves)."""
    return copy.deepcopy(
        {k: v for k, v in vars(controller).items() if k not in ("ordering", "_rng")}
    )


@pytest.mark.parametrize("pair", sorted(DROPPED, key=pair_id), ids=pair_id)
def test_a_dropped_pair_returns_nothing_and_changes_nothing(pair):
    state, event = pair
    controller = in_state(state).controller
    before = fields(controller)
    rng = controller._rng.getstate()
    assert feed(controller, event, sample(event, controller)) == []
    assert fields(controller) == before and controller._rng.getstate() == rng


def test_an_event_outside_the_table_is_not_an_event():
    controller = MembershipController(pid=0)
    with pytest.raises(TypeError):
        controller.on_message(("not", "a", "message"))
    with pytest.raises(ValueError):
        controller.on_timer("data batch")


# ----------------------------------------------------------------------
# Timers belong to states; state changes only along the nine edges
# ----------------------------------------------------------------------


def test_every_timer_has_one_owner_and_its_row_there():
    owned = [name for names in OWNS.values() for name in names]
    assert sorted(owned) == list(TIMERS)
    for state, names in OWNS.items():
        for name in names:
            assert (state, name) in TABLE


def test_an_edge_cancels_what_the_state_left_owns_but_for_the_quirks_timers():
    assert len(TRANSITIONS) == 9
    survivors = {TIMER_SETTLE, TIMER_GATHER_RESTART}
    for (old, _new), cancelled in TRANSITIONS.items():
        assert set(cancelled) - survivors == set(OWNS[old]) - survivors


@pytest.mark.parametrize(
    "edge",
    sorted(set(itertools.product(MemberState, MemberState)) - set(TRANSITIONS), key=str),
    ids=lambda edge: f"{edge[0].value}->{edge[1].value}",
)
def test_enter_refuses_an_edge_outside_transitions(edge):
    old, new = edge
    controller = in_state(old).controller
    with pytest.raises(AssertionError, match="illegal transition"):
        controller._enter(new, [])
    assert controller.state is old


def test_rows_only_declare_states_they_can_reach():
    for (state, _event), row in TABLE.items():
        reachable, frontier = set(), {state}
        while frontier:
            frontier = {new for old, new in TRANSITIONS if old in frontier} - reachable
            reachable |= frontier
        assert set(row.enters) <= reachable


# ----------------------------------------------------------------------
# The three quirks, pinned by name
# ----------------------------------------------------------------------


def rows_with(quirk):
    return {pair for pair, row in TABLE.items() if row.quirk == quirk}


def test_the_quirks_are_the_three_named_ones():
    assert QUIRKS == {row.quirk for row in TABLE.values() if row.quirk}
    assert len(QUIRKS) == 3


@pytest.mark.parametrize("state", [COMMIT, RECOVER, OPERATIONAL], ids=lambda s: s.value)
def test_quirk_settle_survives_gather(state):
    assert rows_with(table.QUIRK_SETTLE) == {(s, TIMER_SETTLE) for s in (COMMIT, RECOVER, OPERATIONAL)}
    host = in_state(state)
    controller = host.controller
    # Armed in Gather, never cancelled on the way here...
    assert TIMER_SETTLE in host.armed and controller._settle_armed
    before = fields(controller)
    # ...it fires here, and only clears the flag.
    assert host.fire(TIMER_SETTLE) == []
    assert not controller._settle_armed
    controller._settle_armed = True
    assert fields(controller) == before


def test_quirk_gather_restart_survives_a_received_commit_token():
    assert rows_with(table.QUIRK_GATHER_RESTART) == {(GATHER, CommitToken)}
    host = in_state(COMMIT)  # by a received token
    assert {TIMER_GATHER_RESTART, TIMER_COMMIT} <= host.armed
    assert (COMMIT, TIMER_GATHER_RESTART) in DROPPED
    assert host.fire(TIMER_GATHER_RESTART) == []
    assert host.controller.state is COMMIT
    # Whereas our own settle timer takes Gather to Commit without it...
    own = in_state(GATHER)
    for sender in (0, 2):
        own.run(own.controller.on_message(join(sender, {0, 1, 2})))
    own.fire(TIMER_SETTLE)
    assert own.controller.state is COMMIT and TIMER_GATHER_RESTART not in own.armed
    # ...and leaving Commit ends the survivor.
    assert TIMER_GATHER_RESTART not in in_state(OPERATIONAL).armed


def test_quirk_stash_survives_an_aborted_recovery():
    assert rows_with(table.QUIRK_STASH) == {(RECOVER, JoinMessage), (RECOVER, TIMER_RECOVERY)}
    controller = MembershipController(
        pid=0, timeouts=MembershipTimeouts(recovery_retries=1, recovery_jitter=0.0)
    )
    controller.start()
    for sender in (1, 2):
        controller.on_message(join(sender, {0, 1, 2}))
    abandoned = encode_ring_id(1, 0)
    token = CommitToken(ring_id=abandoned, members=(0, 1, 2))
    for member in (1, 2):  # same old ring as ours: we wait for their status, in vain
        token.infos[member] = fresh_info(0)
    controller.on_message(token)
    assert controller.state is RECOVER
    # The new ring's token races ahead of its installation: stashed.
    assert controller.on_message(RegularToken(ring_id=abandoned)) == []
    controller.on_timer(TIMER_RECOVERY)  # retry
    controller.on_timer(TIMER_RECOVERY)  # budget exhausted: abort, peers condemned
    assert controller.state is GATHER and controller.recovery_aborts == 1
    # Alone now, it forms a singleton ring — and the stashed token of the
    # abandoned ring, replayed as a foreign ring's, tears it down in the
    # very call that installed it.
    effects = controller.on_timer(TIMER_CONSENSUS)
    installed = [e for e in effects if isinstance(e, DeliverConfiguration)]
    assert [c.configuration.members for c in installed] == [frozenset({0})]
    assert controller.view_changes == 1 and controller.state is GATHER
    joins = [e for e in effects if isinstance(e, SendControl) and isinstance(e.message, JoinMessage)]
    assert joins and effects.index(joins[-1]) > effects.index(installed[0])


# ----------------------------------------------------------------------
# docs/PROTOCOL.md §6 says what the code says
# ----------------------------------------------------------------------

PROTOCOL_MD = Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"


def section_six() -> str:
    text = PROTOCOL_MD.read_text()
    return text[text.index("### The transition table"):text.index("## 7. ")]


def markdown_tables(text):
    """Each markdown table as a list of rows of stripped cells, header first."""
    tables, rows = [], []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if not set(line) <= set("|-: "):
                rows.append(cells)
        elif rows:
            tables.append(rows)
            rows = []
    return tables


def names_in(text):
    return tuple(re.findall(r"`(\w+)`", text))


def test_protocol_md_grid_is_the_table():
    grid = next(t for t in markdown_tables(section_six()) if t[0][0] == "event")
    columns = [MemberState(title.lower()) for title in grid[0][1:]]
    events = {
        (f"`{event_name(e)}`" + (" timer" if e in TIMERS else "")).replace("`data batch`", "data batch"): e
        for e in EVENTS
    }
    documented = {}
    for label, *cells in grid[1:]:
        for state, cell in zip(columns, cells):
            if cell == "·":
                continue
            match = re.fullmatch(r"`(\w+)`(?: → ([a-z, ]+?))?(?: † ([a-z-]+))?", cell)
            assert match, cell
            handler, enters, quirk = match.groups()
            entered = tuple(MemberState(s) for s in enters.split(", ")) if enters else ()
            documented[state, events[label]] = (handler, entered, quirk)
    assert len(grid) - 1 == len(EVENTS)
    assert documented == {
        pair: (row.handler.__name__, row.enters, row.quirk) for pair, row in TABLE.items()
    }


def test_protocol_md_ownership_edges_and_quirks_are_the_codes():
    text = section_six()
    owns = {
        MemberState(state.lower()): names_in(timers)
        for state, timers in re.findall(r"^\* \*\*(\w+)\*\* owns (.*)\.$", text, re.M)
    }
    assert owns == OWNS
    edges = next(t for t in markdown_tables(text) if t[0][0] == "edge")
    assert {
        tuple(MemberState(end) for end in edge.split(" → ")): names_in(cancels)
        for edge, cancels in edges[1:]
    } == TRANSITIONS
    assert sorted(re.findall(r"^\* \*\*([a-z-]+)\*\* — ", text, re.M)) == sorted(QUIRKS)

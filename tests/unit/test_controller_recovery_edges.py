"""Edge-case unit tests for the membership controller's commit/recovery
handling: stash replay, stale traffic filtering, recovery message rules."""


from repro.core.messages import DeliveryService
from repro.core.token import initial_token
from repro.membership.controller import (
    MemberState,
    MembershipController,
    TIMER_CONSENSUS,
    TIMER_SETTLE,
)
from repro.core.events import Deliver, DeliverConfiguration, SendControl
from repro.membership.messages import (
    CommitToken,
    JoinMessage,
    MemberInfo,
    RecoveredMessage,
    RecoveryStatus,
)
from repro.membership.ring_id import encode_ring_id
from tests.conftest import data_message


def two_member_controller(pid=0, clock=None):
    """A controller driven to an operational {0, 1} ring by hand."""
    controller = MembershipController(pid=pid, clock=clock)
    controller.start()
    peer = 1 - pid
    controller.on_message(
        JoinMessage(sender=peer, proc_set=frozenset({0, 1}),
                    fail_set=frozenset(), ring_seq=0)
    )
    controller.on_timer(TIMER_SETTLE)
    token = CommitToken(ring_id=encode_ring_id(1, 0), members=(0, 1))
    for member in (0, 1):
        if member != pid:
            token.infos[member] = MemberInfo(
                old_ring_id=encode_ring_id(0, member), old_aru=0, high_seq=0
            )
    controller.on_message(token)
    assert controller.state is MemberState.OPERATIONAL
    return controller


def test_stale_data_from_past_ring_silently_ignored():
    controller = two_member_controller()
    first_ring = controller.ring_id
    # force a view change: token loss -> gather -> singleton? Instead,
    # simulate by recording past ring and checking stale data handling
    stale = data_message(5, pid=1, ring_id=999999999)
    # unknown foreign ring while operational -> gather
    controller.on_message(stale)
    assert controller.state is MemberState.GATHER


def test_recovered_message_outside_window_ignored():
    controller = two_member_controller()
    # recovery finished; feed a RecoveredMessage while operational
    message = RecoveredMessage(
        old_ring_id=encode_ring_id(0, 0), message=data_message(3, pid=1)
    )
    effects = controller.on_message(message)
    deliveries = [e for e in effects if isinstance(e, Deliver)]
    assert deliveries == []


def test_status_for_other_ring_ignored_while_operational():
    controller = two_member_controller()
    status = RecoveryStatus(
        sender=1, new_ring_id=123456789, old_ring_id=1, have=(), complete=False
    )
    assert controller.on_message(status) == []


def test_straggler_status_for_current_ring_answered():
    controller = two_member_controller()
    final = controller._final_recovery
    status = RecoveryStatus(
        sender=1,
        new_ring_id=controller.ring_id,
        old_ring_id=final.my_old_ring,
        have=(),
        complete=False,
    )
    effects = controller.on_message(status)
    replies = [
        e.message
        for e in effects
        if isinstance(e, SendControl) and isinstance(e.message, RecoveryStatus)
    ]
    assert replies and replies[0].complete


def _straggler_status(controller):
    final = controller._final_recovery
    return RecoveryStatus(
        sender=1,
        new_ring_id=controller.ring_id,
        old_ring_id=final.my_old_ring,
        have=(),
        complete=False,
    )


def _help_replies(effects):
    return [
        e
        for e in effects
        if isinstance(e, SendControl) and isinstance(e.message, RecoveryStatus)
    ]


def test_straggler_help_reply_is_unicast_to_the_straggler():
    # Regression: multicast help replies fed back into every other
    # operational member's help path, an exponential status storm for
    # rings of three or more that starved the token until the loss timer
    # split the ring (found by the sim<->real oracle at hosts=4).
    controller = two_member_controller()
    replies = _help_replies(controller.on_message(_straggler_status(controller)))
    assert replies and replies[0].destination == 1


def test_straggler_help_rate_limited_per_sender():
    now = [0.0]
    controller = two_member_controller(clock=lambda: now[0])
    status = _straggler_status(controller)
    assert _help_replies(controller.on_message(status))
    # Re-gossip inside the status interval: already answered, stay quiet.
    now[0] += controller.timeouts.recovery_status_interval / 2
    assert not _help_replies(controller.on_message(status))
    # The straggler's next scheduled gossip gets a fresh answer.
    now[0] += controller.timeouts.recovery_status_interval
    assert _help_replies(controller.on_message(status))


def test_straggler_help_stops_after_recovery_timeout():
    now = [0.0]
    controller = two_member_controller(clock=lambda: now[0])
    status = _straggler_status(controller)
    now[0] = controller._installed_at + controller.timeouts.recovery_timeout + 1e-3
    assert not _help_replies(controller.on_message(status))


def test_duplicate_commit_token_while_operational_ignored():
    controller = two_member_controller()
    echo = CommitToken(ring_id=controller.ring_id, members=(0, 1))
    echo.infos[0] = MemberInfo(encode_ring_id(0, 0), 0, 0)
    echo.infos[1] = MemberInfo(encode_ring_id(0, 1), 0, 0)
    assert controller.on_message(echo) == []
    assert controller.state is MemberState.OPERATIONAL


def test_regular_config_delivered_exactly_once_per_install():
    controller = MembershipController(pid=0)
    controller.start()
    effects = controller.on_timer(TIMER_CONSENSUS)  # singleton install
    configs = [e for e in effects if isinstance(e, DeliverConfiguration)]
    regular = [c for c in configs if not c.configuration.transitional]
    assert len(regular) == 1


def test_submissions_survive_one_view_change():
    controller = two_member_controller()
    controller.submit(payload=b"will-survive", service=DeliveryService.SAFE)
    assert controller.ordering.pending_count == 1
    # token loss -> gather -> consensus timeout x2 -> singleton install
    controller.on_timer("token_loss")
    assert controller.state is MemberState.GATHER
    controller.on_timer(TIMER_CONSENSUS)
    controller.on_timer(TIMER_CONSENSUS)
    if controller.state is not MemberState.OPERATIONAL:
        controller.on_timer(TIMER_CONSENSUS)
    assert controller.state is MemberState.OPERATIONAL
    assert controller.ordering.pending_count == 1  # carried over


def test_token_for_current_ring_resets_loss_timer():
    from repro.core.events import SetTimer

    controller = two_member_controller(pid=0)
    token = initial_token(controller.ring_id)
    effects = controller.on_message(token)
    timer_names = [e.name for e in effects if isinstance(e, SetTimer)]
    assert "token_loss" in timer_names

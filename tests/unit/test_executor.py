"""Unit tests for the shared effect interpreter (repro.core.executor)."""

import pytest

from repro.core.events import (
    CancelTimer,
    Deliver,
    DeliverConfiguration,
    Effect,
    MulticastData,
    SendControl,
    SendToken,
    SetTimer,
    Stable,
)
from repro.core.executor import EffectExecutor
from repro.core.token import RegularToken
from repro.net.simulator import Simulator
from tests.conftest import data_message


class _Handle:
    def __init__(self, log, name):
        self.log = log
        self.name = name
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        self.log.append(("cancel", self.name))


class BareBackend:
    """Records every backend call: the ordering-only half of the protocol."""

    def __init__(self):
        self.calls = []

    def send_data_run(self, run, retransmission):
        self.calls.append(("data", tuple(m.seq for m in run), retransmission))

    def send_token(self, token, destination):
        self.calls.append(("token", token.token_id, destination))

    def deliver(self, messages, config_id, origin_ring):
        self.calls.append(("deliver", tuple(m.seq for m in messages), config_id, origin_ring))


class FullBackend(BareBackend):
    """Adds the membership half; ``schedule`` hands back recording handles."""

    def __init__(self):
        super().__init__()
        self.handles = []
        self.fired = []

    def send_control(self, message, destination):
        self.calls.append(("control", message, destination))

    def schedule(self, delay, callback, *args):
        handle = _Handle(self.calls, args[0])
        handle.fire = lambda: callback(*args)
        self.handles.append(handle)
        self.calls.append(("schedule", args[0], delay))
        return handle

    def reschedule(self, handle, delay, callback, *args):
        self.calls.append(("reschedule", args[0], delay))
        handle.cancel()
        return self.schedule(delay, callback, *args)

    def on_timer(self, name):
        self.fired.append(name)

    def deliver_config(self, configuration):
        self.calls.append(("config", configuration))


class SimBackend(FullBackend):
    """Timers are real simulator events, as under the sim's hosts."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.schedule = self.sim.schedule
        self.reschedule = self.sim.reschedule

    def on_timer(self, name):
        self.fired.append((name, self.sim.now))


def multicasts(*seqs, retransmission=False):
    return [MulticastData(data_message(seq), retransmission) for seq in seqs]


def token(token_id=1):
    return SendToken(RegularToken(ring_id=1, token_id=token_id), destination=2)


class TestDispatch:
    def test_effect_order_is_preserved(self):
        backend = FullBackend()
        EffectExecutor(backend).execute(
            [
                *multicasts(1),
                token(),
                *multicasts(2),
                Deliver((data_message(1),)),
                Deliver((data_message(2), data_message(3))),
                Stable(3),
                SendControl("join", None),
                Deliver((data_message(4),), 7, 7),
                Deliver((data_message(5), data_message(6)), 7, 6),
                DeliverConfiguration("view"),
            ]
        )
        assert backend.calls == [
            ("data", (1,), False),
            ("token", 1, 2),
            ("data", (2,), False),
            ("deliver", (1,), None, None),
            ("deliver", (2, 3), None, None),
            ("control", "join", None),
            ("deliver", (4,), 7, 7),
            ("deliver", (5, 6), 7, 6),
            ("config", "view"),
        ]

    def test_unknown_effect_raises(self):
        class Mystery(Effect):
            pass

        with pytest.raises(TypeError, match="unknown effect"):
            EffectExecutor(FullBackend()).execute([Mystery()])

    def test_membership_effects_are_unknown_to_a_bare_backend(self):
        with pytest.raises(TypeError, match="unknown effect"):
            EffectExecutor(BareBackend()).execute([SetTimer("t", 1.0)])


class TestRunGrouping:
    def test_run_is_flushed_before_the_token_and_at_list_end(self):
        backend = BareBackend()
        EffectExecutor(backend, messages_per_datagram=4).execute(
            [*multicasts(1, 2), token(), *multicasts(3, 4, 5)]
        )
        assert backend.calls == [
            ("data", (1, 2), False),
            ("token", 1, 2),
            ("data", (3, 4, 5), False),
        ]

    def test_full_runs_split_at_messages_per_datagram(self):
        backend = BareBackend()
        EffectExecutor(backend, messages_per_datagram=2).execute(multicasts(1, 2, 3, 4, 5))
        assert backend.calls == [
            ("data", (1, 2), False),
            ("data", (3, 4), False),
            ("data", (5,), False),
        ]

    def test_retransmission_is_never_coalesced(self):
        backend = BareBackend()
        EffectExecutor(backend, messages_per_datagram=8).execute(
            [
                *multicasts(1, 2),
                *multicasts(9, retransmission=True),
                *multicasts(3),
            ]
        )
        assert backend.calls == [
            ("data", (1, 2), False),
            ("data", (9,), True),
            ("data", (3,), False),
        ]

    def test_a_delivery_ends_the_run(self):
        backend = BareBackend()
        EffectExecutor(backend, messages_per_datagram=8).execute(
            [*multicasts(1, 2), Deliver((data_message(1),)), *multicasts(3)]
        )
        assert [call[0] for call in backend.calls] == ["data", "deliver", "data"]

    def test_nothing_is_held_across_effect_lists(self):
        backend = BareBackend()
        executor = EffectExecutor(backend, messages_per_datagram=8)
        executor.execute(multicasts(1))
        assert backend.calls == [("data", (1,), False)]


class TestTimers:
    def test_set_timer_on_a_live_name_cancels_the_old_handle(self):
        backend = FullBackend()
        executor = EffectExecutor(backend)
        executor.execute([SetTimer("loss", 0.5), SetTimer("loss", 0.7)])
        first, second = backend.handles
        assert first.cancelled and not second.cancelled
        assert executor.armed_timers == ("loss",)

    def test_set_timer_on_a_live_name_is_one_backend_reschedule(self):
        backend = FullBackend()
        executor = EffectExecutor(backend)
        executor.execute([SetTimer("loss", 0.5), SetTimer("loss", 0.7)])
        assert [call for call in backend.calls if call[0] != "cancel"] == [
            ("schedule", "loss", 0.5),
            ("reschedule", "loss", 0.7),
            ("schedule", "loss", 0.7),  # this backend's reschedule is cancel + schedule
        ]

    def test_a_rearmed_timer_fires_once_at_the_new_time(self):
        backend = SimBackend()
        executor = EffectExecutor(backend)
        executor.execute([SetTimer("loss", 0.5)])
        backend.sim.run(until=0.25)
        executor.execute([SetTimer("loss", 0.5)])
        assert executor.armed_timers == ("loss",)
        assert backend.sim.pending_events == 1
        backend.sim.run(until=2.0)
        assert backend.fired == [("loss", 0.75)]
        assert executor.armed_timers == ()
        assert backend.sim.events_processed == 1

    def test_cancel_timer_and_cancel_all(self):
        backend = FullBackend()
        executor = EffectExecutor(backend)
        executor.execute([SetTimer("a", 1.0), SetTimer("b", 1.0), CancelTimer("a")])
        assert executor.armed_timers == ("b",)
        executor.execute([CancelTimer("never-armed")])
        executor.cancel_timers()
        assert executor.armed_timers == ()
        assert all(handle.cancelled for handle in backend.handles)

    def test_a_fired_timer_leaves_the_table_and_reaches_the_backend(self):
        backend = FullBackend()
        executor = EffectExecutor(backend)
        executor.execute([SetTimer("beacon", 0.1)])
        backend.handles[0].fire()
        assert backend.fired == ["beacon"]
        assert executor.armed_timers == ()
        # Re-arming after expiry must not cancel the spent handle.
        executor.execute([SetTimer("beacon", 0.1)])
        assert not backend.handles[0].cancelled

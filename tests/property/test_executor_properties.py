"""Property: at ``messages_per_datagram=1`` the executor is a faithful
one-to-one interpreter — the backend sees exactly the effect list, in
order, nothing merged, nothing reordered, nothing dropped but Stable."""

from hypothesis import given, settings, strategies as st

from repro.core.events import (
    CancelTimer,
    Deliver,
    DeliverConfiguration,
    MulticastData,
    SendControl,
    SendToken,
    SetTimer,
    Stable,
)
from repro.core.executor import EffectExecutor
from repro.core.token import RegularToken
from tests.conftest import data_message


class _Recorder:
    """A full backend that transcribes each call back into effect form."""

    class _Handle:
        def cancel(self):
            pass

    def __init__(self):
        self.seen = []

    def send_data_run(self, run, retransmission):
        (message,) = run  # mpd=1: every datagram carries one message
        self.seen.append(MulticastData(message, retransmission))

    def send_token(self, token, destination):
        self.seen.append(SendToken(token, destination))

    def send_control(self, message, destination):
        self.seen.append(SendControl(message, destination))

    def schedule(self, delay, callback, *args):
        self.seen.append(SetTimer(args[0], delay))
        return self._Handle()

    def reschedule(self, handle, delay, callback, *args):
        return self.schedule(delay, callback, *args)

    def on_timer(self, name):
        raise AssertionError("no timer fires in this test")

    def deliver(self, messages, config_id, origin_ring):
        self.seen.append(Deliver(messages, config_id, origin_ring))

    def deliver_config(self, configuration):
        self.seen.append(DeliverConfiguration(configuration))


messages = st.builds(data_message, st.integers(1, 50), pid=st.integers(0, 3))
runs = st.lists(messages, min_size=1, max_size=4).map(tuple)
ring_ids = st.integers(1, 9)
names = st.sampled_from(["token_loss", "join", "beacon"])
effects = st.lists(
    st.one_of(
        st.builds(MulticastData, messages, st.booleans()),
        st.builds(SendToken, st.builds(RegularToken, ring_id=st.just(1)), st.integers(0, 3)),
        st.builds(Deliver, runs),
        st.builds(Deliver, runs, ring_ids, ring_ids),
        st.builds(Stable, st.integers(0, 50)),
        st.builds(SendControl, st.text(max_size=4), st.none() | st.integers(0, 3)),
        st.builds(SetTimer, names, st.floats(0.01, 1.0)),
        st.builds(CancelTimer, names),
        st.builds(DeliverConfiguration, st.integers(1, 9)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(effects)
def test_backend_call_sequence_equals_effect_list_at_mpd_1(effect_list):
    backend = _Recorder()
    executor = EffectExecutor(backend, messages_per_datagram=1)
    executor.execute(effect_list)
    # Stable is informational and CancelTimer acts on the executor's own
    # table; every other effect is exactly one backend call.
    visible = [e for e in effect_list if not isinstance(e, (Stable, CancelTimer))]
    assert backend.seen == visible
    armed = set()
    for effect in effect_list:
        if isinstance(effect, SetTimer):
            armed.add(effect.name)
        elif isinstance(effect, CancelTimer):
            armed.discard(effect.name)
    assert set(executor.armed_timers) == armed

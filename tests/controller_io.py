"""Test-side recorder of the membership controller's observable I/O.

What a substrate can observe of one controller call is the effect list
it executes and the timers armed afterwards: re-arming a live timer is
by contract cancel + schedule (``EffectExecutor``), and cancelling an
unarmed timer does nothing, so ``CancelTimer`` effects themselves carry
no information beyond the armed set.  :class:`ControllerIoRecorder`
hashes exactly that projection, per outermost controller call::

    (pid, state before, event, effects without CancelTimer,
     sorted armed timers after, state after)

It patches the four entry points of ``MembershipController`` and
``EffectExecutor.execute`` (every host runs
``executor.execute(controller.<entry>(...))``, so the executor that
runs next is the calling host's, and its ``armed_timers`` after the run
are the armed set).  Nothing in ``src/`` knows it exists.

``tests/golden/controller_io_digests.json`` holds the digests recorded
on the parent of the PR that rewrote the controller as a transition
table (regenerate: ``PYTHONPATH=src python -m tests.controller_io``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.events import CancelTimer
from repro.core.executor import EffectExecutor
from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.membership.controller import (
    TIMER_COMMIT,
    TIMER_SETTLE,
    MemberState,
    MembershipController,
)
from repro.membership.messages import JoinMessage

GOLDEN = Path(__file__).parent / "golden" / "controller_io_digests.json"
CHAOS_SEED = 7

_ENTRY_POINTS = ("start", "on_message", "on_data_batch", "on_timer")


def _event_name(entry: str, args: tuple) -> str:
    if entry == "on_message":
        return type(args[0]).__name__
    if entry == "on_timer":
        return f"timer:{args[0]}"
    if entry == "on_data_batch":
        return f"batch:{len(args[0])}"
    return entry


class ControllerIoRecorder:
    """Context manager; see the module docstring."""

    #: The recorder now patched in, if any.
    active: Optional["ControllerIoRecorder"] = None

    def __init__(self) -> None:
        self.calls = 0
        #: Calls that installed a ring and had left Operational again
        #: by the time they returned (the stale-stash teardown).
        self.installs_torn_down = 0
        #: ``(state before, entry point, args)`` of the outermost call in
        #: progress, for an observer that wants to know which call a
        #: membership event belongs to.
        self.current: Optional[tuple] = None
        self._hash = hashlib.sha256()
        self._depth = 0
        self._pending: Optional[List[str]] = None
        self._originals: Dict[str, object] = {}

    @property
    def digest(self) -> str:
        assert self._pending is None, "a controller call's effects were never executed"
        return self._hash.hexdigest()

    def __enter__(self) -> "ControllerIoRecorder":
        for entry in _ENTRY_POINTS:
            self._originals[entry] = getattr(MembershipController, entry)
            setattr(MembershipController, entry, self._wrap_entry(entry))
        self._originals["execute"] = EffectExecutor.execute
        EffectExecutor.execute = self._wrap_execute()
        ControllerIoRecorder.active = self
        return self

    def __exit__(self, *exc_info) -> None:
        ControllerIoRecorder.active = None
        EffectExecutor.execute = self._originals.pop("execute")
        for entry, original in self._originals.items():
            setattr(MembershipController, entry, original)
        self._originals.clear()

    def _wrap_entry(self, entry: str):
        original = self._originals[entry]
        recorder = self

        def recorded(controller, *args):
            # The controller may re-enter itself (stash replay); only
            # the call the substrate made is observable.
            if recorder._depth:
                return original(controller, *args)
            assert recorder._pending is None, "previous call's effects were never executed"
            before = controller.state
            installs = controller.view_changes
            recorder._depth += 1
            recorder.current = (before, entry, args)
            try:
                effects = original(controller, *args)
            finally:
                recorder._depth -= 1
                recorder.current = None
            after = controller.state
            if controller.view_changes > installs and after is not MemberState.OPERATIONAL:
                recorder.installs_torn_down += 1
            recorder._pending = [
                str(controller.pid),
                before.value,
                _event_name(entry, args),
                repr([e for e in effects if e.__class__ is not CancelTimer]),
                after.value,
            ]
            return effects

        return recorded

    def _wrap_execute(self):
        original = self._originals["execute"]
        recorder = self

        def recorded(executor, effects):
            original(executor, effects)
            pending, recorder._pending = recorder._pending, None
            if pending is not None:
                pending.append(",".join(sorted(executor.armed_timers)))
                recorder._hash.update("\x1f".join(pending).encode() + b"\x1e")
                recorder.calls += 1

        return recorded


# ----------------------------------------------------------------------
# What the golden file pins
# ----------------------------------------------------------------------


class SansIoHost:
    """The least a controller's host can be: an executor whose timers
    never fire on their own (``fire`` plays the clock)."""

    def __init__(self, controller: MembershipController) -> None:
        self.controller = controller
        self.executor = EffectExecutor(self)
        self._expire = None
        self._fired: list = []

    def send_data_run(self, run, retransmission): ...
    def send_token(self, token, destination): ...
    def deliver(self, messages, config_id, origin_ring): ...
    def send_control(self, message, destination): ...
    def deliver_config(self, configuration): ...
    def cancel(self): ...

    def schedule(self, delay, callback, name):
        self._expire = callback
        return self

    def reschedule(self, handle, delay, callback, name):
        return self

    def on_timer(self, name):
        self._fired = self.run(self.controller.on_timer(name))

    def run(self, effects: list) -> list:
        self.executor.execute(effects)
        return effects

    @property
    def armed(self) -> set:
        return set(self.executor.armed_timers)

    def fire(self, name: str) -> list:
        """Expire the armed timer ``name``; the effects it produced."""
        assert name in self.armed, name
        self._expire(name)
        return self._fired


def commit_timeout_sequence() -> MembershipController:
    """The one edge the chaos library never takes at seed 7: a
    non-representative agrees to a ring (``test_controller.py``'s
    commit sequence), no commit token ever arrives, the commit timer
    fires, and the controller is back in Gather."""
    controller = MembershipController(pid=1)
    host = SansIoHost(controller)
    host.run(controller.start())
    host.run(
        controller.on_message(
            JoinMessage(sender=0, proc_set=frozenset({0, 1}), fail_set=frozenset(), ring_seq=0)
        )
    )
    host.fire(TIMER_SETTLE)
    assert controller.state is MemberState.COMMIT
    host.fire(TIMER_COMMIT)
    return controller


def record_chaos(name: str) -> Dict[str, object]:
    with ControllerIoRecorder() as recorder:
        report = run_scenario(name, seed=CHAOS_SEED)
    assert report.ok, report.violations
    return {
        "calls": recorder.calls,
        "installs_torn_down": recorder.installs_torn_down,
        "digest": recorder.digest,
    }


def record_commit_timeout() -> Dict[str, object]:
    with ControllerIoRecorder() as recorder:
        controller = commit_timeout_sequence()
    assert controller.state is MemberState.GATHER
    return {"calls": recorder.calls, "installs_torn_down": 0, "digest": recorder.digest}


def main() -> None:
    document = {f"chaos:{name}": record_chaos(name) for name in sorted(SCENARIOS)}
    document["unit:commit-timeout"] = record_commit_timeout()
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({sum(entry['calls'] for entry in document.values())} calls)")


if __name__ == "__main__":
    main()

"""Tripwire: effects have one interpreter, clusters one assembly path.

Scans the package source so that a re-grown effect ladder, a second
run-grouping accumulator or a new deprecation shim fails tier-1 instead
of drifting in unnoticed (the shape of the port and unseeded-random
tripwires in ``conftest.py``, applied to the source tree)."""

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
#: The only module allowed to dispatch on effect types or to construct
#: the coalescing accumulator.
EXECUTOR = SRC / "core" / "executor.py"
#: The effect classes' own ``__eq__`` methods compare classes.
EXEMPT = {EXECUTOR, SRC / "core" / "events.py"}

_EFFECTS = (
    "Deliver|DeliverBatch|MulticastData|SendToken|Stable|SendControl|SetTimer|"
    "CancelTimer|DeliverMessage|DeliverMessageBatch|DeliverConfiguration"
)
FORBIDDEN = {
    "dispatches on effect types": re.compile(
        r"isinstance\(\s*effect\s*,"
        rf"|\b(kind|type\(\w+\)|\w+\.__class__) (is|is not|==|!=) ({_EFFECTS})\b"
        rf"|isinstance\([^()]*,\s*\(?\s*({_EFFECTS})\b"
    ),
    "constructs a CoalescingAccumulator": re.compile(r"\bCoalescingAccumulator\("),
    "keeps a deprecation shim": re.compile(r"DeprecationWarning|_from_builder"),
}


def _violations():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path in EXEMPT:
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for what, pattern in FORBIDDEN.items():
                if pattern.search(line):
                    found.append(f"{path.relative_to(SRC)}:{number} {what}: {line.strip()}")
    return found


def test_only_the_executor_interprets_effects():
    assert _violations() == []


def test_the_tripwire_patterns_bite():
    dispatch = FORBIDDEN["dispatches on effect types"]
    for line in (
        "if isinstance(effect, MulticastData):",
        "elif kind is Deliver:",
        "if type(effect) is SendToken:",
        "if effect.__class__ is not MulticastData:",
        "if isinstance(item, (Deliver, DeliverBatch)):",
        "seqs = [e for e in core if isinstance(e, Deliver)]",
    ):
        assert dispatch.search(line), line
    assert not dispatch.search("if isinstance(message, DataMessage):")
    assert not dispatch.search("if isinstance(e, MessageDelivery)")
    assert not dispatch.search("if payload.__class__ is CoalescedDatagram:")
    # The executor itself is exempt, and does dispatch.
    assert dispatch.search(EXECUTOR.read_text())

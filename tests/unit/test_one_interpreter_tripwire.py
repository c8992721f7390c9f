"""Tripwire: effects have one interpreter, clusters one assembly path,
benches one gate.

Scans the package source so that a re-grown effect ladder, a second
run-grouping accumulator, a new deprecation shim, a copied baseline
comparator or a bench environment knob fails tier-1 instead of drifting
in unnoticed (the shape of the port and unseeded-random
tripwires in ``conftest.py``, applied to the source tree)."""

import re
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
#: The only module allowed to dispatch on effect types or to construct
#: the coalescing accumulator.
EXECUTOR = SRC / "core" / "executor.py"
#: The effect classes' own ``__eq__`` methods compare classes.
EXEMPT = {EXECUTOR, SRC / "core" / "events.py"}
#: The only module allowed to compare a bench report with a baseline
#: (``conformance/`` compares delivery orders, a different job).
GATE = SRC / "bench" / "harness.py"

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
    "reads a bench environment knob": re.compile(r"REPRO_BENCH_(?!FAST\b)"),
}
GATE_ONLY = re.compile(r"^\s*def (compare_\w*|baseline_path)\(", re.MULTILINE)


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


def test_one_bench_gate():
    definitions = [
        (str(path.relative_to(SRC)), match.group(1))
        for path in sorted(SRC.rglob("*.py"))
        if "conformance" not in path.parts
        for match in GATE_ONLY.finditer(path.read_text())
    ]
    assert definitions == [
        ("bench/harness.py", "compare_reports"),
        ("bench/harness.py", "baseline_path"),
    ]
    knob = FORBIDDEN["reads a bench environment knob"]
    assert knob.search('os.environ.get("REPRO_BENCH_WALL_TOL", "0.5")')
    assert not knob.search('os.environ.get("REPRO_BENCH_FAST", "0")')
    # The KV and runtime suites resolve lazily: the gate itself stays light.
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, repro.bench.harness; print(*sys.modules)"],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": str(SRC.parent)},
    ).stdout.split()
    assert not {"asyncio", "repro.apps.kv", "repro.runtime"} & set(loaded)


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

"""DESIGN.md's inventory names real things: every dotted ``repro.*`` name
in it imports or resolves, and its CLI row lists every subcommand."""

import argparse
import importlib
import re
from pathlib import Path

import repro
from repro.cli import build_parser

DESIGN = Path(repro.__file__).parent.parent.parent / "DESIGN.md"
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _resolve(name):
    """Import the longest importable module prefix of ``name``, then walk
    the rest as attributes; raises if any step is missing."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        try:
            found = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            # Only a missing piece of this name means "try a shorter one".
            if not f"{module}.".startswith(f"{exc.name}."):
                raise
            continue
        for attribute in parts[split:]:
            found = getattr(found, attribute)
        return found
    raise ModuleNotFoundError(name)


def _unresolved(text):
    missing = []
    for name in sorted(set(DOTTED.findall(text))):
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    return missing


def test_every_dotted_name_in_design_resolves():
    text = DESIGN.read_text()
    assert len(set(DOTTED.findall(text))) > 30
    assert _unresolved(text) == []
    # ...and the check bites on rows naming modules that do not exist.
    assert _unresolved("`repro.net.nic`, `repro.core.delivery`, `repro.net.link.Link`") == [
        "repro.core.delivery",
        "repro.net.nic",
    ]


def test_the_cli_row_lists_every_subcommand():
    row = next(line for line in DESIGN.read_text().splitlines() if line.startswith("| CLI |"))
    listed = set(re.findall(r"\b[a-z]+\b", row.split("|")[3]))
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert len(subparsers.choices) == 10
    assert set(subparsers.choices) <= listed

"""Command-line interface.

``python -m repro <command>`` (or the ``accelring`` console script):

* ``demo`` — the quickstart comparison at one operating point.
* ``figure`` — regenerate a committed result (or ``all``), save it under
  ``benchmarks/results/`` and check its shape against the paper's.
* ``chaos`` — run a named fault-injection scenario under EVS checking.
* ``soak`` — run many seeded random fault plans under EVS checking.
* ``conformance`` — differential oracle + bounded schedule exploration
  across the protocol variants; ``report`` reads back and ``replay``
  re-runs every artifact these commands write.
* ``kv`` — the replicated KV store: fault-free runs, chaos scenarios
  with linearizability checking, WAL recover-replay.
* ``fleet run`` — real daemons on loopback under closed-loop clients;
  fails unless every message is acked and the health counters are 0.
* ``daemon`` — run a real daemon (UDP ring + unix client socket).

Each family's module contributes its subcommands through ``register``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import checks, figures, fleet, kv
from repro.util.errors import ConfigurationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelring",
        description="Accelerated Ring: fast total ordering for modern data centers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for family in (figures, checks, kv, fleet):
        family.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as error:
        print(f"accelring: error: {error}", file=sys.stderr)
        return 2

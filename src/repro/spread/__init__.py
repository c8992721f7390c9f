"""A Spread-like group communication toolkit layer.

The paper evaluates the protocol inside production Spread, whose value
comes from features layered *above* the ordering protocol (paper §I):
descriptive group names, many groups with different client sets,
multi-group multicast with cross-group ordering, open-group semantics (a
process need not join a group to send to it), message packing into
MTU-sized protocol packets, and fragmentation of large messages.

This package implements that layer on top of the ordering stack:

* :mod:`repro.spread.wire` / :mod:`repro.spread.frames` — envelopes in
  ordered messages, and the frames container every groupcast rides in.
* :mod:`repro.spread.groups` — a replicated group directory driven by
  the total order, so every daemon sees identical group views.
* :mod:`repro.spread.packing` — greedy packing of small messages into
  one protocol packet (Spread's built-in ability, §IV-A3).
* :mod:`repro.spread.fragmentation` — application-level fragmentation
  and reassembly of large messages.
* :mod:`repro.spread.daemon` / :mod:`repro.spread.client_api` — the
  runtime's one daemon and one client library, speaking the one
  client protocol (:mod:`repro.runtime.ipc`).  They stand for both the
  paper's daemon-based and its Spread prototype; the per-message cost
  that tells those apart is the ``DAEMON`` vs ``SPREAD`` profile.
"""

from repro.spread.wire import AppData, GroupJoin, GroupLeave, Fragment, Packed
from repro.spread.groups import GroupDirectory, SortedNameSet
from repro.spread.packing import Packer
from repro.spread.fragmentation import Fragmenter, FragmentReassembler
from repro.spread.daemon import SpreadDaemon
from repro.spread.client_api import (
    GroupMessage,
    GroupView,
    ShardedSpreadClient,
    SpreadClient,
)

__all__ = [
    "AppData",
    "GroupJoin",
    "GroupLeave",
    "Fragment",
    "Packed",
    "GroupDirectory",
    "SortedNameSet",
    "Packer",
    "Fragmenter",
    "FragmentReassembler",
    "SpreadDaemon",
    "ShardedSpreadClient",
    "SpreadClient",
    "GroupMessage",
    "GroupView",
]

"""Real asyncio/UDP runtime.

Runs the same sans-io protocol engines as the simulator over real
sockets, at laptop scale:

* :class:`~repro.runtime.transport.UdpTransport` — two UDP sockets per
  node (token port and data port, as in paper §III-E); logical multicast
  via unicast fan-out (the IP-multicast substitute the paper itself
  offers for environments without multicast).
* :class:`~repro.runtime.node.RingNode` — a full protocol stack
  (membership + ordering) on one asyncio loop: the *library-based
  prototype*.
* The *daemon-based* and *Spread* prototypes are both
  :class:`~repro.spread.daemon.SpreadDaemon` +
  :class:`~repro.spread.client_api.SpreadClient`: daemons accept local
  clients over unix sockets (remote ones over TCP) and speak the one
  client protocol of :mod:`repro.runtime.ipc`, mirroring Spread's
  client-daemon architecture.  What separates the paper's daemon and
  Spread numbers — per-message overheads only — is the ``DAEMON`` vs
  ``SPREAD`` cost profile (DESIGN.md §2), not a second daemon.
"""

from repro.runtime.transport import PeerAddress, UdpTransport, local_ring_addresses
from repro.runtime.node import RingNode

__all__ = [
    "PeerAddress",
    "UdpTransport",
    "local_ring_addresses",
    "RingNode",
]

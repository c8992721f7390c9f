"""Ephemeral port reservation for loopback rings, fleets, and tests.

Hard-coded port numbers make loopback tests order-dependent (two tests
picking the same base collide) and hostile to parallel CI.  Every
runtime consumer — the fleet launcher, the differential oracle, the
integration tests — reserves ports here instead: bind to port 0, let
the kernel pick a free port, record it, and release the socket.  The
tiny reserve-then-rebind race is acceptable on loopback (nothing else
is grabbing ports at CI rates), and in exchange any number of fleets
can run side by side.  A multi-port reservation holds every socket open
until the last port is assigned: the kernel may hand a just-released
port straight back, so releasing one at a time can grant the same port
twice within one call.

Reservations are recorded in :data:`GRANTED_PORTS` so the test-suite
tripwire (``tests/conftest.py``) can tell a reserved port apart from a
hard-coded one: binding a literal port number fails the test, binding
a reserved one does not.
"""

from __future__ import annotations

import socket
from typing import Dict, Iterable, List, Set

from repro.runtime.transport import PeerAddress

#: Every port handed out by the reservation helpers, for the lifetime of
#: the process.  Ports are never removed: a reservation is a statement
#: that the port was kernel-assigned, which stays true after close.
GRANTED_PORTS: Set[int] = set()


def reserve_udp_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ``count`` distinct kernel-assigned UDP ports on ``host``.

    Every reservation socket stays bound until all ``count`` ports are
    assigned, so the kernel cannot hand the same port out twice.
    """
    socks: List[socket.socket] = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            socks.append(sock)
            sock.bind((host, 0))
        ports = [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()
    GRANTED_PORTS.update(ports)
    return ports


def reserve_udp_port(host: str = "127.0.0.1") -> int:
    """Reserve a kernel-assigned UDP port on ``host`` and release it."""
    return reserve_udp_ports(1, host)[0]


def reserve_tcp_port(host: str = "127.0.0.1") -> int:
    """Reserve a kernel-assigned TCP port on ``host`` and release it."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        port = sock.getsockname()[1]
    finally:
        sock.close()
    GRANTED_PORTS.add(port)
    return port


def ephemeral_ring_addresses(
    pids: Iterable[int], host: str = "127.0.0.1"
) -> Dict[int, PeerAddress]:
    """Kernel-assigned data/token port pairs for each pid on ``host``.

    The ephemeral replacement for
    :func:`repro.runtime.transport.local_ring_addresses`: same shape,
    no fixed base port, safe to call from any number of concurrent
    fleets or tests.
    """
    pids = list(pids)
    ports = iter(reserve_udp_ports(2 * len(pids), host))
    return {
        pid: PeerAddress(
            pid=pid, host=host, data_port=next(ports), token_port=next(ports)
        )
        for pid in pids
    }

"""UDP transports for the real runtime.

Each node owns two UDP sockets — one for the token (and membership
control) and one for data — so the receive path can prioritize one class
over the other exactly as described in paper §III-E.  Logical multicast
is built from unicast fan-out to every peer, which is the fallback the
paper notes Spread offers when IP-multicast is unavailable (it is
typically unavailable on loopback test environments too).

The sockets are plain non-blocking sockets watched with
``loop.add_reader``.  A readable socket gets one *ingest pass*, and a
pass never reads the token socket before it has read the data socket
until it would block (PROTOCOL.md §4, "the runtime's pass").  A ring
member sends its data before its token, so whatever data preceded a
token is already in the data socket's buffer when that token can be
read; reading in this order keeps it ahead of the token however many
datagrams one wakeup finds.  Sends are direct ``sendto`` calls; a send
the kernel refuses is a lost datagram, which the protocol's
retransmission path recovers like any other loss.
"""

from __future__ import annotations

import asyncio
import random
import socket
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class PeerAddress:
    """Where one ring member listens."""

    pid: int
    host: str
    data_port: int
    token_port: int


def local_ring_addresses(pids: Iterable[int], base_port: int = 28800) -> Dict[int, PeerAddress]:
    """Assign loopback ports for a set of participants: each pid gets
    ``base_port + 2*pid`` (data) and ``base_port + 2*pid + 1`` (token)."""
    return {
        pid: PeerAddress(
            pid=pid,
            host="127.0.0.1",
            data_port=base_port + 2 * pid,
            token_port=base_port + 2 * pid + 1,
        )
        for pid in pids
    }


#: Largest datagram one ``recv`` accepts (the UDP maximum).
MAX_DATAGRAM = 65535

#: Largest payload one ``sendto`` accepts: the 16-bit IP length less the
#: IP (20) and UDP (8) headers.  The kernel refuses anything longer
#: (``EMSGSIZE``), so no message may need more than this on its own.
MAX_UDP_PAYLOAD = 65507

#: Bytes of coalesced messages one data datagram is filled to: the UDP
#: payload of one jumbo frame, 9000 - 20 - 8 — the paper's 8850-byte
#: large-datagram regime (Figs. 5/7), and eight of the end-to-end
#: benchmark's 1087-byte batch items.  A constant, not an option: on the
#: saturated loopback fleet this budget measured +15 % msgs/s over no
#: coalescing (12.3 k -> 14.2 k, 10 of 10 alternating pairs), filling to
#: :data:`MAX_UDP_PAYLOAD` instead +3 % on top (15.0 k -> 15.5 k, 7 of
#: 10 pairs, inside the run-to-run spread) — the gain is in the first
#: jumbo frame, while every lost datagram costs one retransmission per
#: message in it (PROTOCOL.md §9.1).
DATAGRAM_BUDGET = 8972

#: Data datagrams read in one ingest pass.  Bounds how long a flooded
#: socket keeps the loop from its other callbacks; a pass that stops here
#: has not emptied the data socket, so it leaves the token socket unread
#: (the sockets stay readable and the loop calls again).
INGEST_BUDGET = 64


def bind_udp(host: str, port: int) -> socket.socket:
    """A non-blocking UDP socket bound to ``(host, port)``."""
    family, kind, proto, _name, address = socket.getaddrinfo(
        host, port, type=socket.SOCK_DGRAM
    )[0]
    sock = socket.socket(family, kind, proto)
    try:
        sock.setblocking(False)
        sock.bind(address)
    except OSError:
        sock.close()
        raise
    return sock


class UdpTransport:
    """Two-socket UDP transport with unicast-fan-out logical multicast.

    ``on_data`` / ``on_token`` receive one datagram each, in ingest
    order: within a pass, every data datagram before any token-port
    datagram.

    ``loss_rate`` drops incoming *data* datagrams with the given i.i.d.
    probability — the runtime equivalent of the paper's instrumented-drop
    loss experiments (§IV-A4); tokens are never dropped by the model.
    """

    def __init__(
        self,
        pid: int,
        peers: Dict[int, PeerAddress],
        on_data: Callable[[bytes], None],
        on_token: Callable[[bytes], None],
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        token_loss_rate: float = 0.0,
    ) -> None:
        if pid not in peers:
            raise ValueError(f"own pid {pid} missing from peer table")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if not 0.0 <= token_loss_rate < 1.0:
            raise ValueError(
                f"token_loss_rate must be in [0, 1), got {token_loss_rate}"
            )
        self.pid = pid
        self.peers = peers
        self._on_data = on_data
        self._on_token = on_token
        self.loss_rate = loss_rate
        #: Drop rate for token-port datagrams.  The paper's loss
        #: experiments exclude token loss (it is rare and handled by the
        #: membership algorithm); this knob exists to *test* exactly that
        #: membership path over real sockets.
        self.token_loss_rate = token_loss_rate
        self._rng = random.Random(loss_seed)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._data_sock: Optional[socket.socket] = None
        self._token_sock: Optional[socket.socket] = None
        self._data_peers: List[Tuple[str, int]] = []
        self._token_peers: Dict[int, Tuple[str, int]] = {}
        self.datagrams_sent = 0
        #: Sends the kernel refused (full socket buffer, unreachable
        #: peer): lost datagrams, never exceptions — see :meth:`_send`.
        self.datagrams_send_dropped = 0
        self.datagrams_dropped = 0
        self.tokens_dropped = 0

    async def start(self) -> None:
        me = self.peers[self.pid]
        data_sock = bind_udp(me.host, me.data_port)
        try:
            token_sock = bind_udp(me.host, me.token_port)
        except OSError:
            data_sock.close()
            raise
        self._data_sock, self._token_sock = data_sock, token_sock
        self._data_peers = [
            (peer.host, peer.data_port)
            for pid, peer in self.peers.items()
            if pid != self.pid
        ]
        self._token_peers = {
            pid: (peer.host, peer.token_port) for pid, peer in self.peers.items()
        }
        self._loop = asyncio.get_running_loop()
        self._loop.add_reader(data_sock, self._ingest_data)
        self._loop.add_reader(token_sock, self._ingest)

    def close(self) -> None:
        for sock in (self._data_sock, self._token_sock):
            if sock is not None:
                self._loop.remove_reader(sock)
                sock.close()
        self._data_sock = self._token_sock = None

    # ------------------------------------------------------------------
    # Receive: one ingest pass per readiness callback
    # ------------------------------------------------------------------

    def _ingest(self) -> None:
        """The token socket is readable: read the data socket until it
        would block, and only then one datagram from the token socket.

        asyncio's own datagram transport reads one datagram per socket
        per wakeup, which used to keep a token from overtaking the data
        sent before it only by accident: once a wakeup reads many
        datagrams, the order has to be stated.  One token-port datagram
        per pass, because in a formed ring there is exactly one (the
        token) and probing for a second costs a failed ``recv`` on every
        token hop; a burst of control messages stays readable and is
        read a wakeup apart, as it always was.
        """
        data_sock, token_sock = self._data_sock, self._token_sock
        if data_sock is None:
            return  # closed by an earlier callback of this loop iteration
        if not _drain(data_sock, self._receive_data):
            return  # data left unread: the token waits for the next pass
        try:
            datagram = token_sock.recv(MAX_DATAGRAM)
        except BlockingIOError:
            return
        self._receive_token(datagram)

    def _ingest_data(self) -> None:
        """Only the data socket is known readable: read it, leave the
        token socket to :meth:`_ingest`."""
        if self._data_sock is not None:
            _drain(self._data_sock, self._receive_data)

    def _receive_data(self, data: bytes) -> None:
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.datagrams_dropped += 1
            return
        self._on_data(data)

    def _receive_token(self, data: bytes) -> None:
        if self.token_loss_rate and self._rng.random() < self.token_loss_rate:
            self.tokens_dropped += 1
            return
        self._on_token(data)

    # ------------------------------------------------------------------
    # Send: direct non-blocking sendto
    # ------------------------------------------------------------------

    @staticmethod
    def _open(sock: Optional[socket.socket]) -> socket.socket:
        if sock is None:
            raise RuntimeError("transport not started")
        return sock

    def _send(self, sock: socket.socket, payload: bytes, address: Tuple[str, int]) -> None:
        """One datagram out, or one datagram lost — never an exception.

        A full send buffer (``BlockingIOError``) or any other refusal by
        the kernel is what UDP promises anyway: the datagram is gone,
        it is counted, and the protocol's ``rtr`` path (or the token-loss
        timeout) recovers it.  Raising instead would abandon the effect
        list the send belongs to half-executed.
        """
        try:
            sock.sendto(payload, address)
        except OSError:
            self.datagrams_send_dropped += 1
        else:
            self.datagrams_sent += 1

    def multicast_data(self, payload: bytes) -> None:
        """Send to every peer's data port (the sender keeps its own copy
        locally, so no self-send is needed)."""
        data_sock = self._open(self._data_sock)
        for address in self._data_peers:
            self._send(data_sock, payload, address)

    def send_token(self, payload: bytes, dst: int) -> None:
        self._send(self._open(self._token_sock), payload, self._token_peers[dst])

    def send_control(self, payload: bytes, dst: Optional[int] = None) -> None:
        """Control messages ride the token port class."""
        token_sock = self._open(self._token_sock)
        if dst is not None:
            self._send(token_sock, payload, self._token_peers[dst])
            return
        for pid, address in self._token_peers.items():
            if pid != self.pid:
                self._send(token_sock, payload, address)


def _drain(sock: socket.socket, receive: Callable[[bytes], None]) -> bool:
    """Hand ``receive`` each queued datagram; True once ``sock`` would
    block, False if :data:`INGEST_BUDGET` ran out first."""
    recv = sock.recv
    for _ in range(INGEST_BUDGET):
        try:
            datagram = recv(MAX_DATAGRAM)
        except BlockingIOError:
            return True
        receive(datagram)
    return False

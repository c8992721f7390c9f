"""Implementation profiles: the paper's three systems as CPU-cost models.

The paper evaluates the protocols in a library-based prototype, a
daemon-based prototype, and production Spread (§I, §IV).  All three run
the same protocol; they differ in per-message overheads:

* the **library** prototype has no client communication at all — each
  process injects and receives messages itself;
* the **daemon** prototype adds IPC hops: a sending client injects
  messages into the daemon and a receiving client gets deliveries from it;
* **Spread** adds the cost of a real production system: large descriptive
  group/sender names that must be analyzed on delivery, support for many
  clients and groups, multi-group multicast — the paper singles out
  delivery being "relatively expensive in Spread, due to the need to
  analyze group names and send to the correct clients" — and Spread's
  substantially larger protocol headers (1350-byte payloads leave
  "sufficient space for protocol headers" in a 1500-byte MTU).

The cost model is ``fixed + per_byte`` per datagram: fixed costs dominate
for 1350-byte messages (the CPU-bound regime of the 10 GbE figures), while
per-byte costs explain why 8850-byte payloads raise maximum throughput
sub-linearly (Figs. 5/7).  Values were calibrated once against the paper's
reported operating points (maximum throughputs per implementation, network
and payload size — see DESIGN.md §6) and are frozen here; benchmarks never
tune them per-experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import usec

_NSEC_PER_BYTE = 1e-9


@dataclass(frozen=True)
class ImplementationProfile:
    """Per-message CPU costs (seconds) and header size for one system.

    Attributes:
        name: display name used in benchmark output.
        data_header_bytes: protocol header bytes added to every data
            message on the wire.
        send_cpu: fixed CPU time to multicast one data datagram (stamping,
            bookkeeping, sendto).
        recv_cpu: fixed CPU time to read and process one received datagram.
        fragment_cpu: CPU time charged per non-final IP fragment of a large
            datagram (kernel reassembly work).
        deliver_cpu: CPU time to deliver one message to the application
            (for daemon architectures the IPC write to the receiving
            client; for Spread also group-name analysis).
        token_cpu: CPU time to process a received token, excluding the
            sends it triggers.
        token_send_cpu: CPU time to transmit the updated token.
        ingest_cpu: CPU time to read one message from a sending client's
            IPC socket (zero for the library prototype).
        per_byte_recv: CPU time per payload byte on the receive path
            (checksums, copies).
        per_byte_send: CPU time per payload byte on the send path.
    """

    name: str
    data_header_bytes: int
    send_cpu: float
    recv_cpu: float
    fragment_cpu: float
    deliver_cpu: float
    token_cpu: float
    token_send_cpu: float
    ingest_cpu: float
    per_byte_recv: float
    per_byte_send: float

    def recv_cost(self, datagram_bytes: int) -> float:
        return self.recv_cpu + self.per_byte_recv * datagram_bytes

    def send_cost(self, datagram_bytes: int) -> float:
        return self.send_cpu + self.per_byte_send * datagram_bytes


#: Library-based prototype: bare protocol, no client communication.
LIBRARY = ImplementationProfile(
    name="library",
    data_header_bytes=34,
    send_cpu=usec(0.8),
    recv_cpu=usec(0.7),
    fragment_cpu=usec(0.25),
    deliver_cpu=usec(0.35),
    token_cpu=usec(5.0),
    token_send_cpu=usec(0.7),
    ingest_cpu=0.0,
    per_byte_recv=1.05 * _NSEC_PER_BYTE,
    per_byte_send=0.42 * _NSEC_PER_BYTE,
)

#: Daemon-based prototype: realistic client communication for one group.
DAEMON = ImplementationProfile(
    name="daemon",
    data_header_bytes=54,
    send_cpu=usec(1.2),
    recv_cpu=usec(1.0),
    fragment_cpu=usec(0.3),
    deliver_cpu=usec(0.6),
    token_cpu=usec(9.0),
    token_send_cpu=usec(0.8),
    ingest_cpu=usec(0.8),
    per_byte_recv=1.30 * _NSEC_PER_BYTE,
    per_byte_send=0.52 * _NSEC_PER_BYTE,
)

#: Production Spread: full toolkit overheads (groups, names, packing).
#: The cost structure follows the paper's §IV-A1 analysis: delivery is
#: what is "relatively expensive in Spread, due to the need to analyze
#: group names and send to the correct clients" — so the bulk of Spread's
#: extra cost sits on the delivery path (which the accelerated protocol
#: moves off the token's critical path), not on token handling itself.
SPREAD = ImplementationProfile(
    name="spread",
    data_header_bytes=150,
    send_cpu=usec(1.2),
    recv_cpu=usec(0.26),
    fragment_cpu=usec(0.35),
    deliver_cpu=usec(2.9),
    token_cpu=usec(11.0),
    token_send_cpu=usec(1.0),
    ingest_cpu=usec(1.0),
    per_byte_recv=1.45 * _NSEC_PER_BYTE,
    per_byte_send=0.58 * _NSEC_PER_BYTE,
)

PROFILES = {profile.name: profile for profile in (LIBRARY, DAEMON, SPREAD)}

"""Packing small messages into MTU-sized protocol packets.

Paper §IV-A3: "Spread includes a built-in ability to pack small messages
into a single protocol packet, but the size of a protocol packet is
limited to fit within a standard 1500-byte MTU."  The packer batches
encoded envelopes greedily, preserving order; each flush yields payloads
that fit the protocol-packet budget.

This is the reference codec's packing, not the daemon's: a
``SpreadDaemon`` orders every client groupcast, as the client wrote it,
inside an ``ENV_FRAMES`` container — one per read, a read of one
groupcast a container of one frame (PROTOCOL.md §15, "packing") — and
neither submits nor forwards a ``Packed`` one.  What still imports this
module: the frozen ``spread.packing.pack_ns_per_msg`` micro and the
codec tests.
"""

from __future__ import annotations

from typing import List

from repro.spread.wire import ENV_PACKED, Packed, decode_envelope
from repro.util.errors import ConfigurationError

#: Bytes of per-item overhead inside a packed container (length prefix).
_ITEM_OVERHEAD = 4
#: Bytes of container overhead (tag + count).
_CONTAINER_OVERHEAD = 3


class Packer:
    """Greedy, order-preserving packer of encoded envelopes."""

    def __init__(self, budget: int = 1350) -> None:
        if budget < 64:
            raise ConfigurationError(f"pack budget too small: {budget}")
        self.budget = budget
        self._pending: List[bytes] = []
        self._pending_size = _CONTAINER_OVERHEAD
        self.packets_emitted = 0
        self.envelopes_packed = 0

    def add(self, envelope_bytes: bytes) -> List[bytes]:
        """Add one encoded envelope; returns any payloads that became full.

        An envelope that alone exceeds the budget is emitted unpacked
        (the fragmentation layer is responsible for splitting it).
        """
        cost = len(envelope_bytes) + _ITEM_OVERHEAD
        if cost + _CONTAINER_OVERHEAD > self.budget:
            emitted = self.flush()
            emitted.append(envelope_bytes)
            self.packets_emitted += 1
            self.envelopes_packed += 1
            return emitted
        if self._pending_size + cost > self.budget:
            emitted = self.flush()
        else:
            emitted = []
        self._pending.append(envelope_bytes)
        self._pending_size += cost
        return emitted

    def flush(self) -> List[bytes]:
        """Emit whatever is pending as one packet (or nothing)."""
        pending = self._pending
        if not pending:
            return []
        self._pending = []
        self._pending_size = _CONTAINER_OVERHEAD
        self.packets_emitted += 1
        self.envelopes_packed += len(pending)
        if len(pending) == 1:
            return pending  # no container needed for a single envelope
        return [Packed(tuple(pending)).encode()]


def unpack_payload(payload: bytes) -> List[bytes]:
    """Expand one ordered payload into its constituent encoded envelopes.

    Only a packed container is decoded here; anything else is one
    envelope and is returned as it is, for the caller to decode (once).
    """
    if payload and payload[0] == ENV_PACKED:
        return list(decode_envelope(payload).items)
    return [payload]

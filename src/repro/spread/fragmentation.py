"""Application-level fragmentation of large messages.

Messages larger than the protocol-packet budget are split into ordered
fragments and reassembled at delivery.  Because fragments ride the total
order, a receiver sees every fragment of a message in index order, but
fragments from *different* senders may interleave, so reassembly is
keyed by (origin daemon, fragment id).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.spread.wire import Fragment, encode_fragment
from repro.util.errors import CodecError, ConfigurationError

#: The fragment chunk size: an envelope longer than this is ordered as
#: its fragments (PROTOCOL.md §15, "packing").  A daemon's and the
#: differential's spread variant's fragmenters both use it.
FRAGMENT_CHUNK = 1300


class Fragmenter:
    """Splits oversized envelope bytes into Fragment envelopes."""

    def __init__(self, chunk_size: int = FRAGMENT_CHUNK) -> None:
        if chunk_size < 16:
            raise ConfigurationError(f"chunk_size too small: {chunk_size}")
        self.chunk_size = chunk_size
        self._ids = itertools.count(1)
        self.messages_fragmented = 0

    def fragment(self, encoded: bytes) -> List[bytes]:
        """Split one encoded envelope into fragment envelopes.

        Chunks are carved out through a ``memoryview``: each byte of the
        input is copied exactly once, into its fragment envelope, instead
        of once for the slice and again for the header concatenation.
        """
        if len(encoded) <= self.chunk_size:
            return [encoded]
        frag_id = next(self._ids)
        chunk_size = self.chunk_size
        total = -(-len(encoded) // chunk_size)
        self.messages_fragmented += 1
        view = memoryview(encoded)
        return [
            encode_fragment(
                frag_id,
                index,
                total,
                view[index * chunk_size : (index + 1) * chunk_size],
            )
            for index in range(total)
        ]


class FragmentReassembler:
    """Reassembles fragments back into the original envelope bytes."""

    def __init__(self) -> None:
        self._partial: Dict[Tuple[int, int], List[Optional[bytes]]] = {}
        self._missing: Dict[Tuple[int, int], int] = {}
        self.messages_reassembled = 0

    def accept(self, origin: int, fragment: Fragment) -> Optional[bytes]:
        """Feed one fragment; returns the whole envelope when complete."""
        if not 0 <= fragment.index < fragment.total:
            raise CodecError(
                f"fragment index {fragment.index} out of range (total {fragment.total})"
            )
        key = (origin, fragment.frag_id)
        slots = self._partial.get(key)
        if slots is None:
            slots = [None] * fragment.total
            self._partial[key] = slots
            self._missing[key] = fragment.total
        if len(slots) != fragment.total:
            raise CodecError("fragment total mismatch within one message")
        # A missing-slot counter replaces the all()-scan per fragment
        # (which made reassembling an n-fragment message O(n^2));
        # duplicate fragments overwrite their slot without recounting.
        if slots[fragment.index] is None:
            self._missing[key] -= 1
        slots[fragment.index] = fragment.chunk
        if self._missing[key] == 0:
            del self._partial[key]
            del self._missing[key]
            self.messages_reassembled += 1
            # join() performs the single final copy; the chunks were
            # never copied since decode.
            return b"".join(slots)  # type: ignore[arg-type]
        return None

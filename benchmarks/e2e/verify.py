"""Output checks shared by the workloads.

Pure functions over plain data (delivery streams, store digests), so the
self-test can hand each one a deliberately corrupted input.  Each returns
a list of findings; empty means correct.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable, List, Mapping, Sequence


def stream_digest(stream: Iterable[Hashable]) -> str:
    """Order-sensitive digest of one receiver's delivery stream."""
    digest = hashlib.sha256()
    for item in stream:
        digest.update(repr(item).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def same_order(streams: Mapping[Hashable, Sequence[Hashable]]) -> List[str]:
    """Every receiver delivered the same messages in the same order."""
    digests = {receiver: stream_digest(stream) for receiver, stream in streams.items()}
    if len(set(digests.values())) <= 1:
        return []
    reference_id = min(digests)
    reference = streams[reference_id]
    findings = []
    for receiver, stream in sorted(streams.items()):
        if digests[receiver] == digests[reference_id]:
            continue
        at = next(
            (i for i, (a, b) in enumerate(zip(reference, stream)) if a != b),
            min(len(reference), len(stream)),
        )
        findings.append(
            f"receiver {receiver} diverges from receiver {reference_id} at "
            f"position {at} (lengths {len(stream)} vs {len(reference)})"
        )
    return findings


def undelivered(
    attempted: Iterable[Hashable], streams: Mapping[Hashable, Sequence[Hashable]]
) -> int:
    """How many attempted messages are missing at one receiver or more."""
    delivered = [set(stream) for stream in streams.values()]
    return sum(1 for key in attempted if not all(key in seen for seen in delivered))


def stores_agree(digests: Mapping[int, Mapping[int, str]]) -> List[str]:
    """Within each ring every live replica holds the same store digest."""
    return [
        f"ring {ring}: replicas hold {len(set(per_pid.values()))} different store digests"
        for ring, per_pid in sorted(digests.items())
        if len(set(per_pid.values())) > 1
    ]

"""Replicated group directory.

Every daemon feeds the same total order of join/leave envelopes and
daemon-level configuration changes into its directory, so all daemons
hold identical group views without any extra agreement protocol — the
standard construction over totally ordered multicast.

Member names are qualified as ``"<private_name>#<daemon_pid>"`` so the
directory can prune members whose daemon left the configuration.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Set, Tuple

from repro.util.errors import ProtocolError


class SortedNameSet(set):
    """A ``set`` of names that iterates in sorted order.

    Equality, membership, and the rest of the set protocol are
    untouched (``SortedNameSet({"b", "a"}) == {"a", "b"}``), but any
    traversal — fan-out loops, ``list()``, serialization — sees a
    deterministic order.  The directory hands these out wherever
    callers are known to iterate, because daemons on different hosts
    (or the same host across runs, under hash randomization) must emit
    identical notification sequences from identical directory state.
    """

    def __iter__(self):
        return iter(sorted(set.__iter__(self)))


def qualify(private_name: str, daemon_pid: int) -> str:
    if "#" in private_name:
        raise ProtocolError(f"private name may not contain '#': {private_name!r}")
    return f"{private_name}#{daemon_pid}"


def daemon_of(member: str) -> int:
    try:
        return int(member.rsplit("#", 1)[1])
    except (IndexError, ValueError) as exc:
        raise ProtocolError(f"malformed member name {member!r}") from exc


class GroupDirectory:
    """Group name -> ordered member list, driven by the total order."""

    def __init__(self) -> None:
        self._groups: Dict[str, List[str]] = defaultdict(list)
        #: Groups whose membership changed since the last ``take_dirty``.
        self._dirty: Set[str] = set()

    # ------------------------------------------------------------------

    def members(self, group: str) -> Tuple[str, ...]:
        return tuple(self._groups.get(group, ()))

    # ------------------------------------------------------------------

    def apply_join(self, member: str, group: str) -> bool:
        """Apply an ordered join; returns True if membership changed."""
        daemon_of(member)  # validate the qualified name
        members = self._groups[group]
        if member in members:
            return False
        members.append(member)
        self._dirty.add(group)
        return True

    def apply_leave(self, member: str, group: str) -> bool:
        """Apply an ordered leave; returns True if membership changed."""
        members = self._groups.get(group)
        if not members or member not in members:
            return False
        members.remove(member)
        self._dirty.add(group)
        if not members:
            del self._groups[group]
        return True

    def apply_configuration(self, daemon_pids: Iterable[int]) -> List[str]:
        """Prune members whose daemon is no longer in the configuration.

        Called when a regular configuration is delivered; returns the
        groups whose membership changed.
        """
        alive = set(daemon_pids)
        affected = []
        for group in sorted(self._groups):
            members = self._groups[group]
            survivors = [m for m in members if daemon_of(m) in alive]
            if len(survivors) != len(members):
                if survivors:
                    self._groups[group] = survivors
                else:
                    del self._groups[group]
                self._dirty.add(group)
                affected.append(group)
        return affected

    # ------------------------------------------------------------------

    def take_dirty(self) -> Set[str]:
        """Groups changed since the last call (for view notifications).

        Returned as a :class:`SortedNameSet`: set semantics (callers
        compare against plain sets), sorted iteration (callers fan out
        notifications in a loop, and that loop must run in the same
        order on every daemon and every run).
        """
        dirty, self._dirty = self._dirty, set()
        return SortedNameSet(dirty)

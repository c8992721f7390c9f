"""Configurations: the membership views of Extended Virtual Synchrony."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple


@dataclass(frozen=True)
class Configuration:
    """One configuration: a unique id plus a set of connected members.

    A *regular* configuration is installed when membership settles; a
    *transitional* configuration contains only those members of the
    preceding regular configuration that continue together into the next
    one, and carries no new messages — it exists so the application can
    attribute the final messages of the old configuration precisely.
    """

    config_id: int
    members: FrozenSet[int]
    transitional: bool = False
    #: For transitional configurations: the regular configuration (ring)
    #: this transitional configuration closes.
    closes: "int | None" = None

    @staticmethod
    def regular(config_id: int, members: Iterable[int]) -> "Configuration":
        return Configuration(config_id=config_id, members=frozenset(members))

    @staticmethod
    def transitional_of(
        config_id: int, members: Iterable[int], closes: "int | None" = None
    ) -> "Configuration":
        return Configuration(
            config_id=config_id,
            members=frozenset(members),
            transitional=True,
            closes=closes,
        )

    def __contains__(self, pid: int) -> bool:
        return pid in self.members

    def sorted_members(self) -> Tuple[int, ...]:
        return tuple(sorted(self.members))

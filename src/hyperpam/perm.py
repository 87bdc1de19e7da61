"""Fixed permission universe and bitset permission sets.

The universe is declared once per policy as an ordered list of permission
names. A permission set is an integer bitmask over that list, so membership,
intersection and union are integer operations whatever the policy size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import UnknownPermission

DEFAULT_PERMISSIONS = (
    "Read",
    "Write",
    "Execute",
    "List",
    "Delete",
    "PassRole",
    "AssumeRole",
    "RunInstances",
)


class PermissionUniverse:
    """Ordered, immutable list of permission names with name<->bit mapping."""

    __slots__ = ("names", "_index", "full_mask")

    def __init__(self, names: Iterable[str] = DEFAULT_PERMISSIONS):
        self.names: tuple[str, ...] = tuple(names)
        if not self.names:
            raise UnknownPermission("permission universe may not be empty")
        if len(set(self.names)) != len(self.names):
            raise UnknownPermission("duplicate permission name in universe")
        self._index = {name: i for i, name in enumerate(self.names)}
        self.full_mask: int = (1 << len(self.names)) - 1

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, PermissionUniverse) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def bit(self, name: str) -> int:
        """Single-permission mask; raises UnknownPermission for foreign names."""
        try:
            return 1 << self._index[name]
        except KeyError:
            raise UnknownPermission(f"permission {name!r} not in universe") from None

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= self.bit(name)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.names) if mask >> i & 1)


@dataclass(frozen=True, slots=True)
class PermissionSet:
    """Subset of a universe, held as an integer mask."""

    universe: PermissionUniverse
    mask: int

    def __post_init__(self):
        if self.mask & ~self.universe.full_mask:
            raise UnknownPermission("mask has bits outside the universe")

    def __contains__(self, name: str) -> bool:
        return bool(self.mask & self.universe.bit(name))

    def __bool__(self) -> bool:
        return self.mask != 0

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def names(self) -> tuple[str, ...]:
        return self.universe.names_of(self.mask)

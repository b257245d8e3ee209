"""Register map tables (rename-time and retirement)."""

from __future__ import annotations

from typing import Optional

#: Per-class rename tag: (physical register id, version).
PhysTag = tuple[int, int]


class MapTable:
    """Logical-register to (physical register, version) mapping.

    The conventional scheme always uses version 0; the sharing scheme uses
    the PRT counter value at rename time.  Two instances exist per register
    class: the speculative rename map and the retirement map; precise-state
    recovery copies the latter onto the former (plus shadow-cell value
    recovery handled by the renamer).
    """

    __slots__ = ("entries",)

    def __init__(self, num_logical: int) -> None:
        self.entries: list[Optional[PhysTag]] = [None] * num_logical

    def get(self, logical: int) -> PhysTag:
        tag = self.entries[logical]
        if tag is None:
            raise AssertionError(f"logical register {logical} unmapped")
        return tag

    def set(self, logical: int, tag: PhysTag) -> None:
        self.entries[logical] = tag

    def copy_from(self, other: "MapTable") -> None:
        self.entries = list(other.entries)

    def physical_regs(self) -> set[int]:
        return {tag[0] for tag in self.entries if tag is not None}

    def diff_count(self, other: "MapTable") -> int:
        """Number of logical registers whose mapping differs (recovery cost)."""
        return sum(1 for a, b in zip(self.entries, other.entries) if a != b)

    def __len__(self) -> int:
        return len(self.entries)

"""Free lists for the multi-bank register file."""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.register_file import RegisterFileConfig


class BankedFreeList:
    """One free list per bank, with closest-bank fallback allocation.

    Per Section IV-D: "If there are no free registers of the predicted
    type, a register with the closest number of shadow cells will be
    allocated."  Ties between equally distant banks are broken toward more
    shadow cells (reuse opportunity is never lost by over-provisioning,
    only by under-provisioning).
    """

    def __init__(self, config: RegisterFileConfig) -> None:
        self.config = config
        self._free: list[deque[int]] = [
            deque(config.bank_range(bank)) for bank in range(config.num_banks)
        ]
        self._count = config.total_regs
        #: bank id per physical register (bank_of is O(banks) per call)
        self._bank_of = tuple(
            config.bank_of(phys) for phys in range(config.total_regs)
        )
        #: membership bitmap mirroring the deques (O(1) double-free check)
        self._is_free = [True] * config.total_regs
        #: per-bank fallback orders, precomputed
        self._fallback = tuple(
            tuple(self.fallback_order(bank)) for bank in range(config.num_banks)
        )

    # ------------------------------------------------------------------ queries
    def free_count(self, bank: Optional[int] = None) -> int:
        if bank is None:
            return self._count
        return len(self._free[bank])

    def fallback_order(self, bank: int) -> list[int]:
        """Banks to try, preferred first."""
        banks = range(self.config.num_banks)
        return sorted(banks, key=lambda b: (abs(b - bank), -b))

    # ------------------------------------------------------------------ alloc
    def allocate(self, bank: int) -> Optional[tuple[int, int]]:
        """Allocate preferring ``bank``; returns (phys, actual_bank) or None."""
        free = self._free
        for candidate in self._fallback[bank]:
            if free[candidate]:
                self._count -= 1
                phys = free[candidate].popleft()
                self._is_free[phys] = False
                return phys, candidate
        return None

    def release(self, phys: int) -> None:
        if self._is_free[phys]:
            raise AssertionError(f"double free of p{phys}")
        self._free[self._bank_of[phys]].append(phys)
        self._is_free[phys] = True
        self._count += 1

    def rebuild(self, live: set[int]) -> None:
        """Recovery: the free lists become exactly the non-live registers."""
        is_free = self._is_free
        for bank in range(self.config.num_banks):
            self._free[bank] = deque(
                phys for phys in self.config.bank_range(bank) if phys not in live
            )
        for phys in range(self.config.total_regs):
            is_free[phys] = phys not in live
        self._count = sum(len(q) for q in self._free)

    def contains(self, phys: int) -> bool:
        return self._is_free[phys]

"""The full memory hierarchy of Table I, wired together.

L1-I (48 KB 3-way, 1 cycle) and L1-D (32 KB 2-way, 1 cycle) both back into
a unified L2 (1 MB 16-way, 12 cycles) over DDR3-1600 DRAM.  Data accesses
go through the 48-entry fully-associative TLB, and demand loads train a
degree-1 stride prefetcher that fills into L1-D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mem.cache import Cache
from repro.mem.dram import DRAM, DRAMTimings
from repro.mem.prefetcher import StridePrefetcher
from repro.mem.tlb import TLB


@dataclass(frozen=True)
class HierarchyConfig:
    line_bytes: int = 64
    l1i_size: int = 48 * 1024
    l1i_assoc: int = 3
    l1i_latency: int = 1
    l1d_size: int = 32 * 1024
    l1d_assoc: int = 2
    l1d_latency: int = 1
    l2_size: int = 1024 * 1024
    l2_assoc: int = 16
    l2_latency: int = 12
    tlb_entries: int = 48
    tlb_miss_penalty: int = 30
    prefetcher_degree: int = 1
    enable_prefetcher: bool = True


class MemoryHierarchy:
    """Single-core cache hierarchy + TLB + prefetcher + DRAM."""

    def __init__(self, config: Optional[HierarchyConfig] = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        self.dram = DRAM(DRAMTimings())
        self.l2 = Cache("L2", cfg.l2_size, cfg.l2_assoc, cfg.line_bytes,
                        cfg.l2_latency, next_level=self.dram)
        self.l1d = Cache("L1D", cfg.l1d_size, cfg.l1d_assoc, cfg.line_bytes,
                         cfg.l1d_latency, next_level=self.l2)
        self.l1i = Cache("L1I", cfg.l1i_size, cfg.l1i_assoc, cfg.line_bytes,
                         cfg.l1i_latency, next_level=self.l2)
        self.tlb = TLB(cfg.tlb_entries, miss_penalty=cfg.tlb_miss_penalty)
        self.prefetcher = StridePrefetcher(degree=cfg.prefetcher_degree) \
            if cfg.enable_prefetcher else None

    def data_access(self, pc: int, addr: int, is_write: bool, cycle: int) -> int:
        """Latency of a demand data access (TLB + caches)."""
        latency = self.tlb.translate(addr)
        latency += self.l1d.access(addr, is_write, cycle)
        if self.prefetcher is not None and not is_write:
            self.prefetcher.observe(pc, addr, self.l1d, cycle)
        return latency

    def inst_fetch(self, addr: int, is_write: bool, cycle: int) -> int:
        """Latency of an instruction fetch (L1-I path).

        Signature matches ``Cache.access`` so the fetch unit can use either
        a raw cache or the hierarchy.
        """
        return self.l1i.access(addr, False, cycle)

    # Allow the FetchUnit to treat the hierarchy as its "icache".
    access = inst_fetch

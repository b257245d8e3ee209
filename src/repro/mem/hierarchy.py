"""The full memory hierarchy of Table I, wired together.

L1-I (48 KB 3-way, 1 cycle) and L1-D (32 KB 2-way, 1 cycle) both back into
a unified L2 (1 MB 16-way, 12 cycles) over DDR3-1600 DRAM.  Data accesses
go through the 48-entry fully-associative TLB, and demand loads train a
degree-1 stride prefetcher that fills into L1-D.
"""

from __future__ import annotations

from repro.isa.program import PAGE_BITS
from repro.mem.cache import LINE_BYTES, Cache
from repro.mem.dram import DRAM
from repro.mem.prefetcher import PREFETCH_DEGREE, StridePrefetcher
from repro.mem.tlb import TLB, TLB_ENTRIES, TLB_MISS_PENALTY

# ---- the Table I memory system ----------------------------------------------
# The line size, TLB and prefetch degree are constants of the units that
# read them; this module re-exports them beside the geometry it wires up.
L1I_SIZE, L1I_ASSOC, L1I_LATENCY = 48 * 1024, 3, 1
L1D_SIZE, L1D_ASSOC, L1D_LATENCY = 32 * 1024, 2, 1
L2_SIZE, L2_ASSOC, L2_LATENCY = 1024 * 1024, 16, 12

__all__ = ["LINE_BYTES", "TLB_ENTRIES", "TLB_MISS_PENALTY", "PREFETCH_DEGREE",
           "MemoryHierarchy"]


class MemoryHierarchy:
    """Single-core cache hierarchy + TLB + prefetcher + DRAM.

    ``data_access`` and ``inst_fetch`` run the common case flat: a TLB
    hit, an L1 hit and the stride-table update read the stock ``TLB``,
    ``Cache`` and ``StridePrefetcher`` internals directly, as the
    generated kernel's inlined data access does (see the contract in
    ``repro.codegen.generator``).  A TLB miss, an L1 miss, a new stride
    entry and a prefetch of an absent line call the members' methods, so
    every fill, eviction and writeback has one implementation.  A
    different memory model replaces the hierarchy, not its members.
    """

    def __init__(self) -> None:
        self.dram = DRAM()
        self.l2 = Cache("L2", L2_SIZE, L2_ASSOC, L2_LATENCY,
                        next_level=self.dram)
        self.l1d = Cache("L1D", L1D_SIZE, L1D_ASSOC, L1D_LATENCY,
                         next_level=self.l2)
        self.l1i = Cache("L1I", L1I_SIZE, L1I_ASSOC, L1I_LATENCY,
                         next_level=self.l2)
        self.tlb = TLB()
        self.prefetcher = StridePrefetcher()

    def data_access(self, pc: int, addr: int, is_write: bool, cycle: int) -> int:
        """Latency of a demand data access (TLB + caches)."""
        tlb = self.tlb
        page = addr >> PAGE_BITS
        lru = tlb._lru
        if page in lru:
            tlb.stats.accesses += 1
            lru.move_to_end(page)
            latency = 0
        else:
            latency = tlb.translate(addr)
        l1d = self.l1d
        line_bytes = l1d.line_bytes
        nsets = l1d.num_sets
        sets = l1d._sets
        block = addr // line_bytes
        cache_set = sets[block % nsets]
        tags = cache_set.tags
        tag = block // nsets
        if tag in tags:
            stats = l1d.stats
            stats.accesses += 1
            stats.hits += 1
            prefetched = l1d._prefetched
            if block in prefetched:
                prefetched.discard(block)
                stats.prefetch_hits += 1
            if tags[-1] != tag:
                way = tags.index(tag)
                tags.append(tags.pop(way))
                dirty = cache_set.dirty
                dirty.append(dirty.pop(way))
            if is_write:
                cache_set.dirty[-1] = True
            latency += l1d.hit_latency
        else:
            latency += l1d.access(addr, is_write, cycle)
        if is_write:
            return latency
        pf = self.prefetcher
        entry = pf.table.get(pc & pf.mask)
        if entry is None:
            pf.observe(pc, addr, l1d, cycle)
            return latency
        stride = addr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            confidence = entry.confidence + 1
            entry.confidence = confidence if confidence < 3 else 3
        else:
            entry.confidence = 0
            entry.stride = stride
        entry.last_addr = addr
        if entry.confidence >= pf.threshold and stride != 0:
            for k in range(1, pf.degree + 1):
                target = addr + k * stride
                block = target // line_bytes
                if block // nsets not in sets[block % nsets].tags:
                    l1d.prefetch(target, cycle)
                pf.issued += 1
        return latency

    def inst_fetch(self, addr: int, is_write: bool, cycle: int) -> int:
        """Latency of an instruction fetch (L1-I path).

        Signature matches ``Cache.access`` so the fetch unit can use either
        a raw cache or the hierarchy.
        """
        l1i = self.l1i
        nsets = l1i.num_sets
        block = addr // l1i.line_bytes
        cache_set = l1i._sets[block % nsets]
        tags = cache_set.tags
        tag = block // nsets
        if tag not in tags:
            return l1i.access(addr, False, cycle)
        # the stride prefetcher fills only the L1-D, so an L1-I hit is
        # never a prefetch hit
        stats = l1i.stats
        stats.accesses += 1
        stats.hits += 1
        if tags[-1] != tag:
            way = tags.index(tag)
            tags.append(tags.pop(way))
            dirty = cache_set.dirty
            dirty.append(dirty.pop(way))
        return l1i.hit_latency

    # Allow the FetchUnit to treat the hierarchy as its "icache".
    access = inst_fetch

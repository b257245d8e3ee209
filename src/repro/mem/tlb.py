"""Fully-associative data TLB with LRU replacement."""

from __future__ import annotations

from collections import OrderedDict

from repro.isa.program import PAGE_BITS
from repro.pipeline.stats import TLBStats

#: entries (Table I: "48-entry fully-associative L1 TLB")
TLB_ENTRIES = 48
#: page-walk cycles charged on a miss
TLB_MISS_PENALTY = 30


class TLB:
    """Models the paper's 48-entry fully-associative L1 data TLB.

    ``translate`` returns the *extra* latency charged on top of the cache
    access: zero on a hit, :data:`TLB_MISS_PENALTY` cycles for a page walk
    on a miss.  Page faults are modelled separately by the fault model in
    the functional executor.
    """

    def __init__(self) -> None:
        self.entries = TLB_ENTRIES
        self.miss_penalty = TLB_MISS_PENALTY
        self._lru: OrderedDict[int, None] = OrderedDict()
        self.stats = TLBStats()

    def translate(self, addr: int) -> int:
        page = addr >> PAGE_BITS
        self.stats.accesses += 1
        if page in self._lru:
            self._lru.move_to_end(page)
            return 0
        self.stats.misses += 1
        self._lru[page] = None
        if len(self._lru) > self.entries:
            self._lru.popitem(last=False)
        return self.miss_penalty

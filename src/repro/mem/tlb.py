"""Fully-associative data TLB with LRU replacement."""

from __future__ import annotations

from collections import OrderedDict

from repro.isa.program import PAGE_BITS
from repro.pipeline.stats import TLBStats


class TLB:
    """Models the paper's 48-entry fully-associative L1 data TLB.

    ``translate`` returns the *extra* latency charged on top of the cache
    access: zero on a hit, ``miss_penalty`` cycles for a page walk on a
    miss.  Page faults are modelled separately by the fault model in the
    functional executor.
    """

    def __init__(self, entries: int, miss_penalty: int) -> None:
        self.entries = entries
        self.miss_penalty = miss_penalty
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

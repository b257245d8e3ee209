"""Unit tests for SparseMemory and the cache/TLB/DRAM/prefetcher models."""

import dataclasses
import random
from collections import OrderedDict

import pytest

from repro.isa.memory import SparseMemory
from repro.mem.cache import Cache
from repro.mem.dram import DRAM, ROW_BYTES, ROW_HIT_LATENCY, ROW_MISS_LATENCY
from repro.mem.hierarchy import L1D_LATENCY, MemoryHierarchy
from repro.mem.prefetcher import StridePrefetcher
from repro.mem.tlb import TLB, TLB_MISS_PENALTY
from repro.pipeline.stats import CacheStats, DRAMStats, TLBStats


# --------------------------------------------------------------------- memory
def test_sparse_memory_alignment_and_default():
    mem = SparseMemory()
    assert mem.load(0x123) == 0
    mem.store(0x100, 7)
    assert mem.load(0x107) == 7  # same 8-byte word
    assert mem.load(0x108) == 0


def test_sparse_memory_blocks_and_copy():
    mem = SparseMemory()
    for i, value in enumerate([1, 2, 3]):
        mem.store(0x40 + 8 * i, value)
    assert [mem.load(0x40 + 8 * i) for i in range(3)] == [1, 2, 3]
    clone = mem.copy()
    clone.store(0x40, 99)
    assert mem.load(0x40) == 1
    assert mem != clone
    assert mem == mem.copy()


# --------------------------------------------------------------------- caches
def make_l1(next_level=None):
    return Cache("L1", size_bytes=1024, assoc=2, hit_latency=1,
                 next_level=next_level)


def test_cache_hit_after_miss():
    cache = make_l1()
    miss = cache.access(0x0, False, 0)
    hit = cache.access(0x8, False, 1)  # same line
    assert miss == 1  # no next level: just its own latency
    assert hit == 1
    assert cache.stats.misses == 1 and cache.stats.hits == 1


def test_cache_miss_goes_to_next_level():
    l2 = Cache("L2", 4096, 4, hit_latency=10)
    l1 = make_l1(next_level=l2)
    latency = l1.access(0x0, False, 0)
    assert latency == 1 + 10
    assert l2.stats.accesses == 1
    # now L1 hit: L2 untouched
    assert l1.access(0x0, False, 1) == 1
    assert l2.stats.accesses == 1


def test_cache_lru_eviction():
    cache = make_l1()  # 8 sets, 2 ways
    set_stride = 64 * 8  # same set every 512 bytes
    a, b, c = 0, set_stride, 2 * set_stride
    cache.access(a, False, 0)
    cache.access(b, False, 1)
    cache.access(a, False, 2)  # touch a -> b is LRU
    cache.access(c, False, 3)  # evicts b
    assert cache.contains(a) and cache.contains(c)
    assert not cache.contains(b)


def test_cache_writeback_of_dirty_victim():
    l2 = Cache("L2", 4096, 4, hit_latency=10)
    l1 = make_l1(next_level=l2)
    set_stride = 64 * 8
    l1.access(0, True, 0)  # dirty
    l1.access(set_stride, False, 1)
    l1.access(2 * set_stride, False, 2)  # evicts dirty line 0
    assert l1.stats.writebacks == 1


def test_cache_prefetch_is_not_a_demand_access():
    cache = make_l1()
    cache.prefetch(0x0, 0)
    assert cache.stats.accesses == 0
    assert cache.stats.prefetches == 1
    cache.access(0x0, False, 1)
    assert cache.stats.hits == 1
    assert cache.stats.prefetch_hits == 1


# --------------------------------------------------------------------- DRAM
def test_dram_row_buffer():
    dram = DRAM()
    first = dram.access(0x0, False, 0)
    second = dram.access(0x40, False, 1)  # same row
    assert first == ROW_MISS_LATENCY
    assert second == ROW_HIT_LATENCY
    assert first > second
    assert dram.stats.row_hits == 1 and dram.stats.row_misses == 1


def test_dram_bank_interleaving():
    dram = DRAM()
    dram.access(0x0, False, 0)
    dram.access(ROW_BYTES, False, 1)  # next row maps to the next bank
    assert dram.access(0x0, False, 2) == ROW_HIT_LATENCY


# --------------------------------------------------------------------- TLB
def test_tlb_hit_miss_and_lru():
    tlb = TLB()
    tlb.entries = 2  # a two-entry TLB, substituted after construction
    walk = TLB_MISS_PENALTY
    assert tlb.translate(0x0000) == walk
    assert tlb.translate(0x0008) == 0  # same page
    assert tlb.translate(0x1000) == walk
    assert tlb.translate(0x0000) == 0  # still resident
    assert tlb.translate(0x2000) == walk  # evicts LRU (0x1000's page)
    assert tlb.translate(0x1000) == walk
    assert tlb.stats.misses == 4


# --------------------------------------------------------------------- prefetcher
def test_stride_prefetcher_trains_and_issues():
    cache = make_l1()
    pf = StridePrefetcher()
    pc = 0x40
    for i in range(4):
        pf.observe(pc, 0x1000 + i * 64, cache, i)
    assert pf.issued >= 1
    # the next stride target should now be resident
    assert cache.contains(0x1000 + 4 * 64)


def test_stride_prefetcher_ignores_irregular():
    cache = make_l1()
    pf = StridePrefetcher()
    addrs = [0x0, 0x1000, 0x40, 0x2000, 0x80]
    for i, addr in enumerate(addrs):
        pf.observe(0x40, addr, cache, i)
    assert pf.issued == 0


# --------------------------------------------------------------------- hierarchy
def test_hierarchy_latency_composition():
    h = MemoryHierarchy()
    cold = h.data_access(0, 0x5000, False, 0)
    warm = h.data_access(0, 0x5000, False, 1)
    # cold access: TLB walk + L1 + L2 + DRAM; warm: 1-cycle L1 hit
    assert cold > warm
    assert warm == L1D_LATENCY
    assert h.tlb.stats.misses == 1


def test_hierarchy_inst_fetch_uses_l1i():
    h = MemoryHierarchy()
    h.inst_fetch(0x0, False, 0)
    assert h.l1i.stats.accesses == 1
    assert h.l1d.stats.accesses == 0


# --------------------------------------------------------------------- differential
# The hierarchy's hit paths are flat: ``MemoryHierarchy`` reads the TLB,
# L1 and stride-table internals directly, and ``Cache``/``DRAM`` inline
# their set and row lookups.  The classes below are the plain
# method-per-step model they replaced; a seeded mixed stream must leave
# both with equal latencies and equal state, bit for bit.


class _RefSet:
    def __init__(self):
        self.tags = []
        self.dirty = []

    def find(self, tag):
        try:
            return self.tags.index(tag)
        except ValueError:
            return -1

    def touch(self, way):
        tag = self.tags.pop(way)
        dirty = self.dirty.pop(way)
        self.tags.append(tag)
        self.dirty.append(dirty)

    def insert(self, tag, dirty, assoc):
        victim = None
        if len(self.tags) >= assoc:
            victim = (self.tags.pop(0), self.dirty.pop(0))
        self.tags.append(tag)
        self.dirty.append(dirty)
        return victim


class _RefCache:
    line_bytes = 64  # Table I

    def __init__(self, name, size_bytes, assoc, hit_latency, next_level=None):
        self.assoc = assoc
        self.hit_latency = hit_latency
        self.next_level = next_level
        self.num_sets = size_bytes // (assoc * self.line_bytes)
        self._sets = [_RefSet() for _ in range(self.num_sets)]
        self.stats = CacheStats()
        self._prefetched = set()

    def _index_tag(self, addr):
        block = addr // self.line_bytes
        return block % self.num_sets, block // self.num_sets

    def access(self, addr, is_write, cycle, _prefetch=False):
        index, tag = self._index_tag(addr)
        cache_set = self._sets[index]
        way = cache_set.find(tag)
        if not _prefetch:
            self.stats.accesses += 1
        if way >= 0:
            if not _prefetch:
                self.stats.hits += 1
                block = addr // self.line_bytes
                if block in self._prefetched:
                    self._prefetched.discard(block)
                    self.stats.prefetch_hits += 1
            cache_set.touch(way)
            if is_write:
                cache_set.dirty[-1] = True
            return self.hit_latency
        if not _prefetch:
            self.stats.misses += 1
        lower_latency = 0
        if self.next_level is not None:
            lower_latency = self.next_level.access(addr, False, cycle)
        victim = cache_set.insert(tag, is_write, self.assoc)
        if victim is not None and victim[1]:
            self.stats.writebacks += 1
            if self.next_level is not None:
                self.next_level.access(
                    (victim[0] * self.num_sets + index) * self.line_bytes,
                    True, cycle)
        if _prefetch:
            self._prefetched.add(addr // self.line_bytes)
        return self.hit_latency + lower_latency

    def prefetch(self, addr, cycle):
        index, tag = self._index_tag(addr)
        if self._sets[index].find(tag) >= 0:
            return
        self.stats.prefetches += 1
        self.access(addr, False, cycle, _prefetch=True)


class _RefDRAM:
    """DDR3-1600 at a 2 GHz core: 2 ranks x 8 banks of 8 KB rows; a row
    hit costs tCAS + 5 ns of bus, a conflict tRP + tRCD + tCAS + bus, with
    tCAS = tRCD = tRP = 13.75 ns."""

    banks = 2 * 8
    row_bytes = 8192
    hit_latency = round((13.75 + 5.0) * 2.0)
    miss_latency = round((3 * 13.75 + 5.0) * 2.0)

    def __init__(self):
        self._open_rows = [None] * self.banks
        self.stats = DRAMStats()

    def access(self, addr, is_write, cycle):
        row = addr // self.row_bytes
        bank, row = row % self.banks, row // self.banks
        self.stats.accesses += 1
        if self._open_rows[bank] == row:
            self.stats.row_hits += 1
            return self.hit_latency
        self.stats.row_misses += 1
        self._open_rows[bank] = row
        return self.miss_latency


class _RefTLB:
    page_bits = 12

    def __init__(self, entries, miss_penalty):
        self.entries = entries
        self.miss_penalty = miss_penalty
        self._lru = OrderedDict()
        self.stats = TLBStats()

    def translate(self, addr):
        page = addr >> self.page_bits
        self.stats.accesses += 1
        if page in self._lru:
            self._lru.move_to_end(page)
            return 0
        self.stats.misses += 1
        self._lru[page] = None
        if len(self._lru) > self.entries:
            self._lru.popitem(last=False)
        return self.miss_penalty


class _RefEntry:
    def __init__(self, last_addr):
        self.last_addr = last_addr
        self.stride = 0
        self.confidence = 0


class _RefPrefetcher:
    def __init__(self, degree, table_size=256, threshold=2):
        self.mask = table_size - 1
        self.degree = degree
        self.threshold = threshold
        self.table = {}
        self.issued = 0

    def observe(self, pc, addr, cache, cycle):
        index = pc & self.mask
        entry = self.table.get(index)
        if entry is None:
            self.table[index] = _RefEntry(addr)
            return
        stride = addr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 3)
        else:
            entry.confidence = 0
            entry.stride = stride
        entry.last_addr = addr
        if entry.confidence >= self.threshold and entry.stride != 0:
            for i in range(1, self.degree + 1):
                cache.prefetch(addr + i * entry.stride, cycle)
                self.issued += 1


class _RefHierarchy:
    """Table I's memory system, its numbers written out here rather than
    read from ``repro.mem``: the reference does not share the model's
    constants."""

    def __init__(self):
        self.dram = _RefDRAM()
        self.l2 = _RefCache("L2", 1024 * 1024, 16, 12, next_level=self.dram)
        self.l1d = _RefCache("L1D", 32 * 1024, 2, 1, next_level=self.l2)
        self.l1i = _RefCache("L1I", 48 * 1024, 3, 1, next_level=self.l2)
        self.tlb = _RefTLB(48, miss_penalty=30)
        self.prefetcher = _RefPrefetcher(degree=1)

    def data_access(self, pc, addr, is_write, cycle):
        latency = self.tlb.translate(addr)
        latency += self.l1d.access(addr, is_write, cycle)
        if not is_write:
            self.prefetcher.observe(pc, addr, self.l1d, cycle)
        return latency

    def inst_fetch(self, addr, is_write, cycle):
        return self.l1i.access(addr, False, cycle)


def _cache_state(cache):
    return ([(list(s.tags), list(s.dirty)) for s in cache._sets],
            sorted(cache._prefetched), dataclasses.asdict(cache.stats))


def _full_state(h):
    pf = h.prefetcher
    return (_cache_state(h.l1i), _cache_state(h.l1d), _cache_state(h.l2),
            list(h.tlb._lru), dataclasses.asdict(h.tlb.stats),
            list(h.dram._open_rows), dataclasses.asdict(h.dram.stats),
            {k: (e.last_addr, e.stride, e.confidence)
             for k, e in pf.table.items()}, pf.issued)


def _shrink(h, cache):
    """Swap smaller caches (built by the class ``cache``) into the fresh
    hierarchy ``h`` and shrink its TLB and widen its prefetches in place:
    the same stream then evicts more, misses the TLB more, and prefetches
    two strides ahead."""
    h.l2 = cache("L2", 32 * 1024, 4, 12, next_level=h.dram)
    h.l1d = cache("L1D", 2 * 1024, 2, 1, next_level=h.l2)
    h.l1i = cache("L1I", 3 * 1024, 3, 1, next_level=h.l2)
    h.tlb.entries = 8
    h.prefetcher.degree = 2


def _mixed_stream(seed: int, n: int):
    """(kind, pc, addr) events: strided load/store streams with their own
    pcs, random data accesses over 64 MB (TLB and L2 pressure, pcs that
    alias in the stride table), a hot region and sequential i-fetch runs
    with jumps."""
    rng = random.Random(seed)
    streams = [[rng.randrange(1 << 26) & ~7, rng.choice((8, 64, 192, -64,
                                                         4096)), 0x1000 + s]
               for s in range(12)]
    fetch_pc = 0
    for _ in range(n):
        r = rng.random()
        if r < 0.30:
            fetch_pc = (fetch_pc + rng.randrange(1, 24)) if rng.random() < .9 \
                else rng.randrange(1 << 20)
            yield "fetch", 0, fetch_pc
        elif r < 0.60:
            stream = rng.choice(streams)
            stream[0] = (stream[0] + stream[1]) % (1 << 26)
            yield ("store" if rng.random() < 0.25 else "load"), stream[2], \
                stream[0]
        elif r < 0.80:
            yield ("store" if rng.random() < 0.4 else "load"), \
                rng.randrange(600), rng.randrange(1 << 26) & ~7
        else:
            yield ("store" if rng.random() < 0.3 else "load"), \
                rng.randrange(40), 0x200000 + rng.randrange(32 * 1024)


@pytest.mark.parametrize("small", [False, True], ids=["table1", "small"])
def test_flat_hierarchy_matches_reference_model(small):
    fast, ref = MemoryHierarchy(), _RefHierarchy()
    assert _full_state(fast) == _full_state(ref)
    assert [(c.num_sets, c.assoc, c.hit_latency)
            for c in (fast.l1i, fast.l1d, fast.l2)] == \
        [(c.num_sets, c.assoc, c.hit_latency)
         for c in (ref.l1i, ref.l1d, ref.l2)]
    if small:
        _shrink(fast, Cache)
        _shrink(ref, _RefCache)
    for cycle, (kind, pc, addr) in enumerate(_mixed_stream(11, 20_000)):
        if kind == "fetch":
            got = fast.access(addr, False, cycle)  # the FetchUnit's entry
            want = ref.inst_fetch(addr, False, cycle)
        else:
            is_write = kind == "store"
            got = fast.data_access(pc, addr, is_write, cycle)
            want = ref.data_access(pc, addr, is_write, cycle)
        assert got == want, (cycle, kind, pc, addr)
        if cycle % 5000 == 0:
            assert _full_state(fast) == _full_state(ref), cycle
    assert _full_state(fast) == _full_state(ref)
    # the stream reached every slow path it is meant to cover
    assert fast.l2.stats.writebacks > 0 and fast.l1d.stats.writebacks > 0
    assert sum(len(s.tags) == fast.l2.assoc for s in fast.l2._sets) > 0
    assert fast.tlb.stats.misses > fast.tlb.entries
    assert fast.dram.stats.row_hits > 0 and fast.dram.stats.row_misses > 0
    assert fast.l1d.stats.prefetch_hits > 0
    assert len(fast.prefetcher.table) == 256


def test_flat_cache_matches_reference_model():
    """A bare two-level ``Cache`` stack (no hierarchy in front) and its
    ``prefetch``/``contains`` against the reference."""
    rng = random.Random(5)
    fast = Cache("L1", 1024, 2, 1,
                 next_level=Cache("L2", 4096, 4, 10,
                                  next_level=DRAM()))
    ref = _RefCache("L1", 1024, 2, 1,
                    next_level=_RefCache("L2", 4096, 4, 10,
                                         next_level=_RefDRAM()))
    for cycle in range(20_000):
        addr = rng.randrange(1 << 16)
        r = rng.random()
        if r < 0.2:
            fast.prefetch(addr, cycle)
            ref.prefetch(addr, cycle)
        else:
            is_write = r > 0.7
            assert fast.access(addr, is_write, cycle) == \
                ref.access(addr, is_write, cycle)
        assert fast.contains(addr)
    for f, r in ((fast, ref), (fast.next_level, ref.next_level)):
        assert _cache_state(f) == _cache_state(r)
    assert fast.next_level.next_level._open_rows == \
        ref.next_level.next_level._open_rows
    assert dataclasses.asdict(fast.next_level.next_level.stats) == \
        dataclasses.asdict(ref.next_level.next_level.stats)
    assert fast.stats.writebacks > 0 and fast.next_level.stats.writebacks > 0
    assert fast.stats.prefetch_hits > 0

"""Set-associative write-back cache with LRU replacement."""

from __future__ import annotations

from repro.pipeline.stats import CacheStats

#: cache line size of every level (Table I)
LINE_BYTES = 64


class _Set:
    """One cache set: parallel tag and dirty-bit lists in LRU order (MRU
    last).  Plain lists, read and reordered in place by ``Cache``, by
    ``MemoryHierarchy``'s inlined L1 hits and by the generated kernel."""

    __slots__ = ("tags", "dirty")

    def __init__(self) -> None:
        self.tags: list[int] = []
        self.dirty: list[bool] = []


class Cache:
    """A cache level of :data:`LINE_BYTES`-byte lines.

    ``access`` returns the total latency (cycles) of the access including
    lower levels on a miss.  ``next_level`` is either another Cache or a
    DRAM object; both expose the same ``access(addr, is_write, cycle)``
    signature.  Writes are write-back/write-allocate; evicted dirty lines
    charge a writeback at the next level (latency not added to the critical
    path, as with a write buffer).

    Every access is one flat call: the set lookup, the LRU reorder and the
    fill work on local names (a hit on the MRU way reorders nothing), and
    only a miss calls the next level.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        hit_latency: int,
        next_level=None,
    ) -> None:
        if size_bytes % (assoc * LINE_BYTES):
            raise ValueError(f"{name}: size not divisible by assoc*line")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = LINE_BYTES
        self.hit_latency = hit_latency
        self.next_level = next_level
        self.num_sets = size_bytes // (assoc * LINE_BYTES)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: number of sets must be a power of two")
        self._sets = [_Set() for _ in range(self.num_sets)]
        self.stats = CacheStats()
        #: lines brought in by the prefetcher and not yet demanded
        self._prefetched: set[int] = set()

    # ------------------------------------------------------------------ access
    def access(self, addr: int, is_write: bool, cycle: int) -> int:
        block = addr // self.line_bytes
        nsets = self.num_sets
        cache_set = self._sets[block % nsets]
        tags = cache_set.tags
        tag = block // nsets
        stats = self.stats
        stats.accesses += 1
        if tag in tags:
            stats.hits += 1
            prefetched = self._prefetched
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
            return self.hit_latency
        stats.misses += 1
        return self.hit_latency + self._fill(cache_set, tag, addr, is_write,
                                             cycle)

    def prefetch(self, addr: int, cycle: int) -> None:
        """Bring a line in without charging a demand access."""
        block = addr // self.line_bytes
        nsets = self.num_sets
        cache_set = self._sets[block % nsets]
        tag = block // nsets
        if tag in cache_set.tags:
            return
        self.stats.prefetches += 1
        self._fill(cache_set, tag, addr, False, cycle)
        self._prefetched.add(block)

    def _fill(self, cache_set: _Set, tag: int, addr: int, is_write: bool,
              cycle: int) -> int:
        """Install ``tag`` as MRU of ``cache_set`` after a miss on ``addr``;
        returns the next level's latency.  A full set evicts its LRU way,
        and a dirty victim is written back below."""
        next_level = self.next_level
        lower_latency = 0
        if next_level is not None:
            lower_latency = next_level.access(addr, False, cycle)
        tags = cache_set.tags
        dirty = cache_set.dirty
        if len(tags) >= self.assoc:
            victim_tag = tags.pop(0)
            victim_dirty = dirty.pop(0)
        else:
            victim_dirty = False
        tags.append(tag)
        dirty.append(is_write)
        if victim_dirty:
            self.stats.writebacks += 1
            if next_level is not None:
                line_bytes = self.line_bytes
                nsets = self.num_sets
                index = (addr // line_bytes) % nsets
                next_level.access((victim_tag * nsets + index) * line_bytes,
                                  True, cycle)
        return lower_latency

    def contains(self, addr: int) -> bool:
        block = addr // self.line_bytes
        return block // self.num_sets in self._sets[block % self.num_sets].tags

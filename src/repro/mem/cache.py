"""Set-associative write-back cache with LRU replacement."""

from __future__ import annotations

from typing import Optional

from repro.pipeline.stats import CacheStats


class _Set:
    """One cache set: list of (tag, dirty) kept in LRU order (MRU last)."""

    __slots__ = ("tags", "dirty")

    def __init__(self) -> None:
        self.tags: list[int] = []
        self.dirty: list[bool] = []

    def find(self, tag: int) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            return -1

    def touch(self, way: int) -> None:
        tag = self.tags.pop(way)
        dirty = self.dirty.pop(way)
        self.tags.append(tag)
        self.dirty.append(dirty)

    def insert(self, tag: int, dirty: bool, assoc: int) -> Optional[tuple[int, bool]]:
        """Insert; returns the evicted (tag, dirty) if any."""
        victim = None
        if len(self.tags) >= assoc:
            victim = (self.tags.pop(0), self.dirty.pop(0))
        self.tags.append(tag)
        self.dirty.append(dirty)
        return victim

    def remove(self, tag: int) -> Optional[bool]:
        way = self.find(tag)
        if way < 0:
            return None
        self.tags.pop(way)
        return self.dirty.pop(way)


class Cache:
    """A cache level.

    ``access`` returns the total latency (cycles) of the access including
    lower levels on a miss.  ``next_level`` is either another Cache or a
    DRAM object; both expose the same ``access(addr, is_write, cycle)``
    signature.  Writes are write-back/write-allocate; evicted dirty lines
    charge a writeback at the next level (latency not added to the critical
    path, as with a write buffer).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        hit_latency: int,
        next_level=None,
    ) -> None:
        if size_bytes % (assoc * line_bytes):
            raise ValueError(f"{name}: size not divisible by assoc*line")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.next_level = next_level
        self.num_sets = size_bytes // (assoc * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: number of sets must be a power of two")
        self._sets = [_Set() for _ in range(self.num_sets)]
        self.stats = CacheStats()
        #: lines brought in by the prefetcher and not yet demanded
        self._prefetched: set[int] = set()

    # ------------------------------------------------------------------ layout
    def _index_tag(self, addr: int) -> tuple[int, int]:
        block = addr // self.line_bytes
        return block % self.num_sets, block // self.num_sets

    def _block(self, addr: int) -> int:
        return addr // self.line_bytes

    # ------------------------------------------------------------------ access
    def access(self, addr: int, is_write: bool, cycle: int, _prefetch: bool = False) -> int:
        index, tag = self._index_tag(addr)
        cache_set = self._sets[index]
        way = cache_set.find(tag)

        if not _prefetch:
            self.stats.accesses += 1

        if way >= 0:
            if not _prefetch:
                self.stats.hits += 1
                block = self._block(addr)
                if block in self._prefetched:
                    self._prefetched.discard(block)
                    self.stats.prefetch_hits += 1
            cache_set.touch(way)
            if is_write:
                cache_set.dirty[-1] = True
            return self.hit_latency

        # miss: fill from below
        if not _prefetch:
            self.stats.misses += 1
        lower_latency = 0
        if self.next_level is not None:
            lower_latency = self.next_level.access(addr, False, cycle)
        victim = cache_set.insert(tag, is_write, self.assoc)
        if victim is not None and victim[1]:
            self.stats.writebacks += 1
            if self.next_level is not None:
                self.next_level.access(self._victim_addr(index, victim[0]), True, cycle)
        if _prefetch:
            self._prefetched.add(self._block(addr))
        return self.hit_latency + lower_latency

    def prefetch(self, addr: int, cycle: int) -> None:
        """Bring a line in without charging a demand access."""
        index, tag = self._index_tag(addr)
        if self._sets[index].find(tag) >= 0:
            return
        self.stats.prefetches += 1
        self.access(addr, False, cycle, _prefetch=True)

    def contains(self, addr: int) -> bool:
        index, tag = self._index_tag(addr)
        return self._sets[index].find(tag) >= 0

    def _victim_addr(self, index: int, tag: int) -> int:
        return (tag * self.num_sets + index) * self.line_bytes

    def reset_stats(self) -> None:
        self.stats = CacheStats()

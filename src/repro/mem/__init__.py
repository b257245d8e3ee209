"""Memory-system substrate: caches, TLB, stride prefetcher, DRAM timing."""

from repro.mem.cache import Cache, CacheStats
from repro.mem.dram import DRAM
from repro.mem.tlb import TLB
from repro.mem.prefetcher import StridePrefetcher
from repro.mem.hierarchy import MemoryHierarchy

__all__ = [
    "Cache",
    "CacheStats",
    "DRAM",
    "TLB",
    "StridePrefetcher",
    "MemoryHierarchy",
]

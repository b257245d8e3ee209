"""PC-indexed stride prefetcher (degree 1), as in the paper's Table I."""

from __future__ import annotations

from dataclasses import dataclass

#: lines prefetched ahead per trained stride (Table I: degree 1)
PREFETCH_DEGREE = 1
#: reference-prediction-table entries, indexed by the load's PC
PREFETCH_TABLE_SIZE = 256
#: confidence a stride needs before it prefetches
PREFETCH_THRESHOLD = 2


@dataclass
class _Entry:
    last_addr: int = 0
    stride: int = 0
    confidence: int = 0


class StridePrefetcher:
    """Classic reference-prediction-table stride prefetcher.

    On every demand load the table entry for the load's PC is trained with
    the observed stride; once the same stride is seen twice in a row the
    prefetcher issues a degree-1 prefetch of ``addr + stride`` into the
    target cache.
    """

    def __init__(self) -> None:
        self.mask = PREFETCH_TABLE_SIZE - 1
        self.degree = PREFETCH_DEGREE
        self.threshold = PREFETCH_THRESHOLD
        self.table: dict[int, _Entry] = {}
        self.issued = 0

    def observe(self, pc: int, addr: int, cache, cycle: int) -> None:
        index = pc & self.mask
        entry = self.table.get(index)
        if entry is None:
            self.table[index] = _Entry(last_addr=addr)
            return
        stride = addr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            confidence = entry.confidence + 1
            entry.confidence = confidence if confidence < 3 else 3
        else:
            entry.confidence = 0
            entry.stride = stride
        entry.last_addr = addr
        # entry.stride == stride from here on
        if entry.confidence >= self.threshold and stride != 0:
            for i in range(1, self.degree + 1):
                cache.prefetch(addr + i * stride, cycle)
                self.issued += 1

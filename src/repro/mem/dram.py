"""DDR3-style DRAM timing model (open-page, per-bank row buffers).

Models the latency-relevant behaviour of the paper's memory configuration
(DDR3-1600, 2 ranks/channel, 8 banks/rank, 8 KB rows, tCAS=tRCD=tRP=13.75 ns):
row-buffer hits pay tCAS, row conflicts pay tRP+tRCD+tCAS.  Queueing
contention is not modelled (single-core study).
"""

from __future__ import annotations

from repro.pipeline.stats import DRAMStats

#: core clock the nanosecond timings convert at
CORE_GHZ = 2.0
TCAS_NS = TRCD_NS = TRP_NS = 13.75
#: channel/bus transfer + controller overhead
BUS_NS = 5.0
#: open-row hit: tCAS; row conflict: tRP + tRCD + tCAS (core cycles)
ROW_HIT_LATENCY = round((TCAS_NS + BUS_NS) * CORE_GHZ)
ROW_MISS_LATENCY = round((TRP_NS + TRCD_NS + TCAS_NS + BUS_NS) * CORE_GHZ)
#: 2 ranks x 8 banks, one row buffer each
BANKS = 2 * 8
ROW_BYTES = 8192


class DRAM:
    """Open-page DRAM with one row buffer per (rank, bank)."""

    def __init__(self) -> None:
        self._open_rows: list[int | None] = [None] * BANKS
        self.stats = DRAMStats()

    def access(self, addr: int, is_write: bool, cycle: int) -> int:
        row = addr // ROW_BYTES
        bank = row % BANKS
        row //= BANKS
        stats = self.stats
        stats.accesses += 1
        open_rows = self._open_rows
        if open_rows[bank] == row:
            stats.row_hits += 1
            return ROW_HIT_LATENCY
        stats.row_misses += 1
        open_rows[bank] = row
        return ROW_MISS_LATENCY

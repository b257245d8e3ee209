"""DDR3-style DRAM timing model (open-page, per-bank row buffers).

Models the latency-relevant behaviour of the paper's memory configuration
(DDR3-1600, 2 ranks/channel, 8 banks/rank, 8 KB rows, tCAS=tRCD=tRP=13.75 ns):
row-buffer hits pay tCAS, row conflicts pay tRP+tRCD+tCAS.  Queueing
contention is not modelled (single-core study).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pipeline.stats import DRAMStats


@dataclass(frozen=True)
class DRAMTimings:
    """DRAM timing parameters converted to core cycles."""

    core_ghz: float = 2.0
    tcas_ns: float = 13.75
    trcd_ns: float = 13.75
    trp_ns: float = 13.75
    bus_ns: float = 5.0  # channel/bus transfer + controller overhead
    ranks: int = 2
    banks_per_rank: int = 8
    row_bytes: int = 8192

    def cycles(self, ns: float) -> int:
        return max(1, round(ns * self.core_ghz))

    @property
    def row_hit_latency(self) -> int:
        return self.cycles(self.tcas_ns + self.bus_ns)

    @property
    def row_miss_latency(self) -> int:
        return self.cycles(self.trp_ns + self.trcd_ns + self.tcas_ns + self.bus_ns)


class DRAM:
    """Open-page DRAM with one row buffer per (rank, bank)."""

    def __init__(self, timings: DRAMTimings | None = None) -> None:
        self.timings = timings or DRAMTimings()
        total_banks = self.timings.ranks * self.timings.banks_per_rank
        self._open_rows: list[int | None] = [None] * total_banks
        self.stats = DRAMStats()

    def _bank_row(self, addr: int) -> tuple[int, int]:
        t = self.timings
        row = addr // t.row_bytes
        total_banks = t.ranks * t.banks_per_rank
        return row % total_banks, row // total_banks

    def access(self, addr: int, is_write: bool, cycle: int) -> int:
        bank, row = self._bank_row(addr)
        self.stats.accesses += 1
        if self._open_rows[bank] == row:
            self.stats.row_hits += 1
            return self.timings.row_hit_latency
        self.stats.row_misses += 1
        self._open_rows[bank] = row
        return self.timings.row_miss_latency

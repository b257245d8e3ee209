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
    """Open-page DRAM with one row buffer per (rank, bank).

    The timings are frozen, so the two latencies and the bank count are
    converted once here rather than on every access.
    """

    def __init__(self, timings: DRAMTimings | None = None) -> None:
        self.timings = t = timings or DRAMTimings()
        self._banks = t.ranks * t.banks_per_rank
        self._row_bytes = t.row_bytes
        self._hit_latency = t.row_hit_latency
        self._miss_latency = t.row_miss_latency
        self._open_rows: list[int | None] = [None] * self._banks
        self.stats = DRAMStats()

    def access(self, addr: int, is_write: bool, cycle: int) -> int:
        row = addr // self._row_bytes
        banks = self._banks
        bank = row % banks
        row //= banks
        stats = self.stats
        stats.accesses += 1
        open_rows = self._open_rows
        if open_rows[bank] == row:
            stats.row_hits += 1
            return self._hit_latency
        stats.row_misses += 1
        open_rows[bank] = row
        return self._miss_latency

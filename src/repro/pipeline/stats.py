"""Simulation statistics."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional

# ====================================================================== component stats
# The counters each simulator component keeps.  They live here, not next
# to their components, so that rebuilding a result (:meth:`SimStats.
# from_dict`) needs no simulator code; each component's module imports
# its class from here.
@dataclass
class RenameStats:
    """Counters shared by both schemes (sharing-specific ones stay zero
    for the conventional renamer)."""

    insts: int = 0
    dest_insts: int = 0
    allocations: int = 0
    allocations_per_bank: list = field(default_factory=lambda: [0, 0, 0, 0])
    fallback_allocations: int = 0  # predicted bank was empty
    reuses: int = 0
    reuses_guaranteed: int = 0  # consumer redefines the single-use register
    reuses_predicted: int = 0  # consumer relied on the single-use prediction
    lost_reuse_no_shadow: int = 0
    lost_reuse_saturated: int = 0
    lost_reuse_not_first_use: int = 0
    lost_reuse_not_predicted: int = 0  # single-use predictor said no
    repairs: int = 0  # single-use mispredictions needing value evacuation
    repair_uops: int = 0
    multi_use_detected: int = 0  # second consumer seen on a shadow-bank register
    releases: int = 0
    recoveries: int = 0
    recovered_map_entries: int = 0

    @property
    def reuse_fraction(self) -> float:
        """Fraction of destination renames that avoided an allocation."""
        return self.reuses / self.dest_insts if self.dest_insts else 0.0


@dataclass
class PredictorStats:
    predictions: int = 0
    releases: int = 0
    exact_hits: int = 0  # predicted reuse count == actual reuse count
    # Figure 12 categories (classified at release):
    reuse_correct: int = 0  # predicted reused, was reused, no extra consumer
    reuse_incorrect: int = 0  # reused but an extra consumer appeared (repair)
    no_reuse_correct: int = 0  # predicted not reused, no reuse opportunity lost
    no_reuse_incorrect: int = 0  # reuse opportunity lost for lack of shadow cells
    reuse_unused: int = 0  # shadow cells allocated but never used (harmless)


@dataclass
class BranchStats:
    branches: int = 0
    mispredicted: int = 0
    btb_misses: int = 0

    @property
    def accuracy(self) -> float:
        return 1.0 - self.mispredicted / self.branches if self.branches else 1.0


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    prefetches: int = 0
    prefetch_hits: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class TLBStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class DRAMStats:
    accesses: int = 0
    row_hits: int = 0
    row_misses: int = 0


#: SimStats fields that hold component-stats objects rather than
#: counters, and the class each is rebuilt as
_COMPONENT_TYPES = {"renamer_stats": RenameStats,
                    "branch_stats": BranchStats,
                    "predictor_stats": PredictorStats}
_COMPONENT_FIELDS = tuple(_COMPONENT_TYPES)
_CACHE_TYPES = {"l1i": CacheStats, "l1d": CacheStats, "l2": CacheStats,
                "tlb": TLBStats, "dram": DRAMStats}


# ====================================================================== whole-run stats
@dataclass
class SimStats:
    """Counters collected by one simulation run."""

    cycles: int = 0
    committed: int = 0  # architectural instructions (micro-ops excluded)
    committed_uops: int = 0

    # stalls, classified at the rename/dispatch boundary
    rename_stall_regs: int = 0  # no free register and no reuse possible
    rename_stall_rob: int = 0
    rename_stall_iq: int = 0
    rename_stall_lsq: int = 0

    # memory behaviour
    loads: int = 0
    stores: int = 0
    store_forwards: int = 0

    # speculation / exceptions / interrupts
    exceptions: int = 0
    interrupts: int = 0
    recovery_cycles: int = 0
    wrong_path_squashed: int = 0  # wrong-path instructions walked back

    # issue activity
    issued: int = 0

    # register-file read-port schemes (repro.core.read_ports); all zero
    # when rf_port_scheme is 'none'
    rf_port_stalls: int = 0    # issue attempts denied a port grant
    rf_port_reads: int = 0     # physical read ports actually claimed
    rf_bypass_reads: int = 0   # operands satisfied from the bypass network
    rf_delayed_reads: int = 0  # instructions charged extra read latency
    rf_delay_cycles: int = 0   # total extra cycles charged by the arbiter

    # structure occupancy (accumulated every cycle)
    rob_occupancy_sum: int = 0
    iq_occupancy_sum: int = 0
    free_regs_sum: int = 0
    occupancy_samples: int = 0

    # references to component stats filled in by the processor
    renamer_stats: Optional[object] = None
    branch_stats: Optional[object] = None
    predictor_stats: Optional[object] = None
    cache_stats: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def avg_rob_occupancy(self) -> float:
        return self.rob_occupancy_sum / self.occupancy_samples \
            if self.occupancy_samples else 0.0

    @property
    def avg_iq_occupancy(self) -> float:
        return self.iq_occupancy_sum / self.occupancy_samples \
            if self.occupancy_samples else 0.0

    @property
    def avg_free_regs(self) -> float:
        return self.free_regs_sum / self.occupancy_samples \
            if self.occupancy_samples else 0.0

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        """Plain-dict snapshot: JSON-able, and much cheaper to pickle than
        the live object graph (used by the result cache and when shipping
        results back from sweep worker processes)."""
        payload = dict(vars(self))
        for name in _COMPONENT_FIELDS:
            component = payload[name]
            payload[name] = None if component is None else dict(vars(component))
        payload["cache_stats"] = {
            name: dict(vars(component))
            for name, component in self.cache_stats.items()
        }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SimStats":
        """Inverse of :meth:`to_dict`; rebuilds the component-stats
        dataclasses so properties (``ipc``, ``miss_rate``, ...) work."""
        data = dict(payload)
        components = {name: data.pop(name, None) for name in _COMPONENT_FIELDS}
        caches = data.pop("cache_stats", {}) or {}
        stats = cls(**data)
        for name, fields_dict in components.items():
            if fields_dict is not None:
                setattr(stats, name, _COMPONENT_TYPES[name](**fields_dict))
        stats.cache_stats = {
            name: _CACHE_TYPES[name](**fields_dict)
            for name, fields_dict in caches.items() if name in _CACHE_TYPES
        }
        return stats

    def detailed_report(self) -> str:
        """gem5-style full statistics dump."""
        lines = [self.summary(), ""]
        lines.append(f"avg ROB occupancy {self.avg_rob_occupancy:8.1f}")
        lines.append(f"avg IQ occupancy  {self.avg_iq_occupancy:8.1f}")
        lines.append(f"avg free int regs {self.avg_free_regs:8.1f}")
        lines.append(f"issued            {self.issued}")
        if self.interrupts:
            lines.append(f"interrupts        {self.interrupts}")
        if self.wrong_path_squashed:
            lines.append(f"wrong-path squashed {self.wrong_path_squashed}")

        renamer = self.renamer_stats
        if renamer is not None and renamer.dest_insts:
            lines.append("")
            lines.append(f"dest renames      {renamer.dest_insts}")
            lines.append(f"  allocations     {renamer.allocations} "
                         f"(per bank {renamer.allocations_per_bank}, "
                         f"fallbacks {renamer.fallback_allocations})")
            lines.append(f"  reuses          {renamer.reuses} "
                         f"[guaranteed {renamer.reuses_guaranteed}, "
                         f"predicted {renamer.reuses_predicted}]")
            lines.append(f"  lost reuse      no-shadow {renamer.lost_reuse_no_shadow}, "
                         f"saturated {renamer.lost_reuse_saturated}, "
                         f"not-first {renamer.lost_reuse_not_first_use}, "
                         f"predicted-no {renamer.lost_reuse_not_predicted}")
            if renamer.repairs:
                lines.append(f"  repairs         {renamer.repairs} "
                             f"({renamer.repair_uops} uops)")
            lines.append(f"  releases        {renamer.releases}, "
                         f"recoveries {renamer.recoveries} "
                         f"({renamer.recovered_map_entries} map entries)")

        branch = self.branch_stats
        if branch is not None and branch.branches:
            lines.append("")
            lines.append(f"branches          {branch.branches} "
                         f"(mispredicted {branch.mispredicted}, "
                         f"accuracy {100 * branch.accuracy:.1f}%, "
                         f"BTB misses {branch.btb_misses})")

        predictor = self.predictor_stats
        if predictor is not None and predictor.releases:
            lines.append(f"type predictor    {predictor.releases} classified "
                         f"releases: reuse-ok {predictor.reuse_correct}, "
                         f"repairs {predictor.reuse_incorrect}, "
                         f"no-reuse-ok {predictor.no_reuse_correct}, "
                         f"missed {predictor.no_reuse_incorrect}, "
                         f"unused {predictor.reuse_unused}")

        if self.cache_stats:
            lines.append("")
            for name in ("l1i", "l1d", "l2"):
                cache = self.cache_stats.get(name)
                if cache is not None and cache.accesses:
                    lines.append(
                        f"{name.upper():5s} accesses {cache.accesses:8d}  "
                        f"miss rate {100 * cache.miss_rate:5.1f}%  "
                        f"writebacks {cache.writebacks}")
            tlb = self.cache_stats.get("tlb")
            if tlb is not None and tlb.accesses:
                lines.append(f"TLB   accesses {tlb.accesses:8d}  "
                             f"miss rate {100 * tlb.miss_rate:5.1f}%")
            dram = self.cache_stats.get("dram")
            if dram is not None and dram.accesses:
                lines.append(f"DRAM  accesses {dram.accesses:8d}  "
                             f"row hits {dram.row_hits}")
        return "\n".join(lines)

    def summary(self) -> str:
        lines = [
            f"cycles            {self.cycles}",
            f"instructions      {self.committed} (+{self.committed_uops} repair uops)",
            f"IPC               {self.ipc:.4f}",
            f"rename stalls     regs={self.rename_stall_regs} rob={self.rename_stall_rob} "
            f"iq={self.rename_stall_iq} lsq={self.rename_stall_lsq}",
            f"loads/stores      {self.loads}/{self.stores} (forwards {self.store_forwards})",
            f"exceptions        {self.exceptions} (recovery cycles {self.recovery_cycles})",
        ]
        return "\n".join(lines)


# ====================================================================== counter arithmetic
def combine_counters(a, b, op=operator.add):
    """Recursive ``op(a, b)`` over :meth:`SimStats.to_dict` snapshots.

    Numbers combine (a ``b`` that is not a number counts as 0), dicts and
    lists recurse elementwise, everything else (None components, strings)
    keeps the ``a`` value.  The sampling engine subtracts
    (``operator.sub``) to isolate one measurement window's counters from a
    processor's cumulative statistics, and adds to sum the windows.
    """
    if isinstance(a, dict):
        b = b if isinstance(b, dict) else {}
        return {key: combine_counters(value, b.get(key), op)
                for key, value in a.items()}
    if isinstance(a, list):
        b = b if isinstance(b, list) else [0] * len(a)
        return [combine_counters(value, other, op)
                for value, other in zip(a, b)]
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        return op(a, b if isinstance(b, (int, float)) else 0)
    return a


def scale_counters(value, ratio: float):
    """Recursively scale counters by ``ratio``; ints stay ints (rounded)."""
    if isinstance(value, dict):
        return {key: scale_counters(item, ratio) for key, item in value.items()}
    if isinstance(value, list):
        return [scale_counters(item, ratio) for item in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return round(value * ratio)
    if isinstance(value, float):
        return value * ratio
    return value


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _stderr(values) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = _mean(values)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return math.sqrt(variance / n)


# ====================================================================== sampled stats
@dataclass
class SampledStats:
    """Whole-stream estimate produced by interval-sampled simulation.

    ``est`` holds per-window counters scaled to the full instruction
    stream; attribute access falls through to it, so figure/report code
    written against :class:`SimStats` (``.ipc``, ``.renamer_stats``, ...)
    works unchanged.  The per-window metric lists carry the statistical
    quality of the estimate: ``*_mean``/``*_stderr``/``*_ci95`` expose a
    normal-approximation 95% confidence interval for IPC and the paper's
    key renaming metrics.
    """

    est: SimStats
    schedule: tuple  # (period, window, warmup) in instructions
    schedule_seed: int
    phase_offset: int
    windows: int
    insts_total: int
    insts_sampled: int  # committed inside measurement windows
    insts_warmup: int  # committed in detailed warmup (measured, discarded)
    insts_fast_forwarded: int  # consumed functionally between windows
    cycles_sampled: int
    window_ipc: list = field(default_factory=list)
    window_reuse_rate: list = field(default_factory=list)  # reuses / dest renames
    window_alloc_saved_rate: list = field(default_factory=list)  # reuses / committed
    window_shadow_occupancy: list = field(default_factory=list)  # shadow cells in use

    #: metric name -> per-window sample list (CI reporting)
    _METRICS = {
        "ipc": "window_ipc",
        "reuse_rate": "window_reuse_rate",
        "alloc_saved_rate": "window_alloc_saved_rate",
        "shadow_occupancy": "window_shadow_occupancy",
    }

    def __getattr__(self, name):
        # only called for attributes not found on SampledStats itself:
        # delegate the SimStats API to the scaled whole-stream estimate
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.est, name)

    # ------------------------------------------------------------------ CI
    def metric_samples(self, metric: str) -> list:
        return getattr(self, self._METRICS[metric])

    def mean(self, metric: str) -> float:
        return _mean(self.metric_samples(metric))

    def stderr(self, metric: str) -> float:
        return _stderr(self.metric_samples(metric))

    def ci95(self, metric: str) -> float:
        """Half-width of the 95% confidence interval (normal approx)."""
        return 1.96 * self.stderr(metric)

    @property
    def detail_fraction(self) -> float:
        """Fraction of the stream simulated in detailed mode."""
        if not self.insts_total:
            return 0.0
        return (self.insts_sampled + self.insts_warmup) / self.insts_total

    def sampling_report(self) -> str:
        period, window, warmup = self.schedule
        ipc = self.mean("ipc")
        lines = [
            f"sampling          {period}:{window}:{warmup} "
            f"(seed {self.schedule_seed}, phase offset {self.phase_offset})",
            f"windows           {self.windows} "
            f"({self.insts_sampled} measured + {self.insts_warmup} warmup insts, "
            f"{self.insts_fast_forwarded} fast-forwarded, "
            f"{100 * self.detail_fraction:.1f}% detailed)",
            f"IPC estimate      {ipc:.4f} ± {self.ci95('ipc'):.4f} (95% CI)",
            f"reuse rate        {self.mean('reuse_rate'):.4f} "
            f"± {self.ci95('reuse_rate'):.4f}",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        return {
            "__sampled__": True,
            "est": self.est.to_dict(),
            "schedule": list(self.schedule),
            "schedule_seed": self.schedule_seed,
            "phase_offset": self.phase_offset,
            "windows": self.windows,
            "insts_total": self.insts_total,
            "insts_sampled": self.insts_sampled,
            "insts_warmup": self.insts_warmup,
            "insts_fast_forwarded": self.insts_fast_forwarded,
            "cycles_sampled": self.cycles_sampled,
            "window_ipc": list(self.window_ipc),
            "window_reuse_rate": list(self.window_reuse_rate),
            "window_alloc_saved_rate": list(self.window_alloc_saved_rate),
            "window_shadow_occupancy": list(self.window_shadow_occupancy),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SampledStats":
        data = dict(payload)
        data.pop("__sampled__", None)
        data["est"] = SimStats.from_dict(data["est"])
        data["schedule"] = tuple(data["schedule"])
        return cls(**data)


def stats_from_dict(payload: dict):
    """Rebuild a :class:`SimStats` or :class:`SampledStats` snapshot.

    The sampled variant is marked with ``"__sampled__": True`` in its
    :meth:`SampledStats.to_dict` payload; everything else is a plain
    :class:`SimStats` dict.  This is the single deserialization entry
    point for the result cache and the sweep worker processes.
    """
    if payload.get("__sampled__"):
        return SampledStats.from_dict(payload)
    return SimStats.from_dict(payload)

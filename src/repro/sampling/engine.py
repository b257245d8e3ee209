"""Interval-sampled simulation: fast-forward + detailed windows.

The engine alternates between two execution modes over one dynamic
instruction stream, given as parsed trace columns
(:class:`~repro.workloads.trace_codec.TraceColumns`):

* **functional fast-forward** — the :class:`~repro.sampling.warmer.FunctionalWarmer`
  scans the skipped index ranges straight from the columns, training the
  branch predictor, the memory hierarchy and the PC-indexed rename
  predictors so that long-lived microarchitectural state survives the
  skipped regions;
* **detailed windows** — a fresh :class:`~repro.pipeline.processor.Processor`
  (sharing the warmed :class:`~repro.frontend.branch_predictor.BranchUnit`
  and importing the warmed predictor tables) runs ``warmup`` instructions
  whose measurements are discarded, then ``window`` instructions whose
  counter deltas become one sample.

Per-window counter deltas are summed and scaled by
``total_insts / sampled_insts`` into a whole-stream estimate; per-window
metric samples drive the standard-error / confidence-interval fields of
:class:`~repro.pipeline.stats.SampledStats`.

Window processors always run with ``verify_values=False`` (a window's
pipeline renames from scratch, so the first consumers of pre-window
values would read stale physical-register contents) and cannot attach
the commit-time oracle for the same reason — ``--exact`` exists for
verification runs.
"""

from __future__ import annotations

import dataclasses
from operator import sub
from typing import Optional

from repro.isa.dyninst import DynInst
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import Processor
from repro.pipeline.stats import (SampledStats, SimStats, combine_counters,
                                  scale_counters)
from repro.sampling.schedule import SamplingSchedule
from repro.sampling.warmer import FunctionalWarmer
from repro.workloads.trace_codec import TraceColumns


class _ColumnarSource:
    """Counting source over parsed trace columns.

    Serves both consumers — the warmer (index ranges via :meth:`advance`)
    and window processors (the :class:`~repro.frontend.fetch.InstSource`
    protocol's ``next_inst``) — so ``consumed`` is the one authoritative
    stream position.  Fast-forward scans the packed columns, so skimmed
    instructions never become Python objects at all; only detailed
    windows (and their in-flight overshoot) materialize :class:`DynInst`
    objects, chunk-wise, via :meth:`~repro.workloads.trace_codec.
    TraceColumns.materialize_range`.  Windows overshoot their budget by
    whatever the dropped processor still held in flight (fetch queue +
    ROB); the absolute-position schedule in :func:`sampled_simulate`
    absorbs that drift instead of accumulating it.  The exhausted flag
    is set when a request reaches *past* the stream end or the limit,
    never when it merely lands on it.
    """

    __slots__ = ("cols", "limit", "consumed", "exhausted", "_buf",
                 "_buf_base")

    #: instructions materialized per window-side buffer refill; one
    #: window (warmup + detail + in-flight overshoot) typically fits
    CHUNK = 512

    def __init__(self, cols, limit: Optional[int] = None) -> None:
        self.cols = cols
        # a limit beyond the stream end and the stream end itself exhaust
        # identically (reading past either sets the flag), so fold them
        self.limit = cols.count if limit is None else min(limit, cols.count)
        self.consumed = 0
        self.exhausted = False
        self._buf: list = []
        self._buf_base = 0

    def advance(self, count: int) -> tuple[int, int]:
        """Consume ``count`` stream positions for warming; returns the
        ``(lo, hi)`` index range actually consumed."""
        lo = self.consumed
        if self.exhausted or count <= 0:
            return lo, lo
        avail = self.limit - lo
        n = count if count <= avail else avail
        hi = lo + n
        self.consumed = hi
        if count > avail:
            self.exhausted = True
        return lo, hi

    def take(self) -> Optional[DynInst]:
        if self.exhausted:
            return None
        consumed = self.consumed
        if consumed >= self.limit:
            self.exhausted = True
            return None
        i = consumed - self._buf_base
        buf = self._buf
        if 0 <= i < len(buf):
            dyn = buf[i]
        else:
            self._buf_base = consumed
            self._buf = buf = self.cols.materialize_range(
                consumed, min(consumed + self.CHUNK, self.limit))
            dyn = buf[0]
        self.consumed = consumed + 1
        return dyn

    # InstSource protocol (window processors fetch through the same counter)
    next_inst = take


def _window_metrics(delta: dict) -> tuple[int, int, float, float, float]:
    """(committed, cycles, ipc, reuse_rate, alloc_saved_rate) of one window."""
    committed = delta.get("committed") or 0
    cycles = delta.get("cycles") or 0
    ipc = committed / cycles if cycles else 0.0
    rstats = delta.get("renamer_stats") or {}
    dest = rstats.get("dest_insts") or 0
    reuses = rstats.get("reuses") or 0
    reuse_rate = reuses / dest if dest else 0.0
    alloc_saved = reuses / committed if committed else 0.0
    return committed, cycles, ipc, reuse_rate, alloc_saved


def _shadow_occupancy(renamer) -> float:
    """Point sample: shadow cells holding a live reused version."""
    hist = renamer.live_version_histogram()
    return float(sum((v - 1) * n for v, n in hist.items() if v > 1))


#: instructions of full (cache + predictor) warming directly before each
#: detailed window; further out, fast-forward only trains the branch
#: predictor — older cache/def-use state would be overwritten anyway
DEFAULT_WARM_ZONE = 3000


def window_config(config: MachineConfig) -> MachineConfig:
    """The config a sampled run simulates: ``config`` without operand
    verification (see the module docstring)."""
    if config.verify_values:
        return dataclasses.replace(config, verify_values=False)
    return config


def sampled_simulate(
    config: MachineConfig,
    cols: TraceColumns,
    schedule: SamplingSchedule,
    total_insts: Optional[int] = None,
) -> SampledStats:
    """Run one interval-sampled simulation of the trace ``cols``; returns
    a :class:`SampledStats`.

    ``total_insts`` caps the stream and anchors the scaling ratio; when
    ``None`` the trace's own length is used.  A stream that, capped,
    is shorter than one period degrades gracefully to a single
    whole-stream detailed window (an exact measurement).
    """
    config = window_config(config)
    source = _ColumnarSource(cols, limit=total_insts)

    branch_unit = config.make_branch_unit()
    # one memory hierarchy for the whole run: the warmer touches it during
    # fast-forward, so windows start with realistic cache/TLB contents
    hierarchy = config.make_hierarchy()

    def window_processor() -> Processor:
        return Processor(config, source, branch_unit=branch_unit,
                         hierarchy=hierarchy)

    # --- degenerate schedule: stream shorter than one period -----------------
    if source.limit < schedule.period:
        proc = window_processor()
        stats = proc.run()
        payload = stats.to_dict()
        committed, cycles, ipc, reuse_rate, alloc_saved = \
            _window_metrics(payload)
        return SampledStats(
            est=stats,
            schedule=(schedule.period, schedule.window, schedule.warmup),
            schedule_seed=schedule.seed,
            phase_offset=0,
            windows=1,
            insts_total=committed,
            insts_sampled=committed,
            insts_warmup=0,
            insts_fast_forwarded=0,
            cycles_sampled=cycles,
            window_ipc=[ipc],
            window_reuse_rate=[reuse_rate],
            window_alloc_saved_rate=[alloc_saved],
            window_shadow_occupancy=[_shadow_occupancy(proc.renamer)],
        )

    warmer = FunctionalWarmer(config, branch_unit, hierarchy)
    phase = schedule.phase_offset()

    deltas: list[dict] = []
    window_ipc: list[float] = []
    window_reuse_rate: list[float] = []
    window_alloc_saved: list[float] = []
    window_shadow: list[float] = []
    insts_sampled = 0
    insts_warmup = 0
    cycles_sampled = 0

    k = 0
    while not source.exhausted:
        # stratified sampling: each period draws its own window offset
        next_detail = k * schedule.period + schedule.window_offset(k)
        k += 1
        gap = next_detail - source.consumed
        if gap > DEFAULT_WARM_ZONE:
            warmer.skim(source, gap - DEFAULT_WARM_ZONE)
            gap = next_detail - source.consumed
        if gap > 0:
            warmer.fast_forward(source, gap)
        if source.exhausted:
            break

        proc = window_processor()
        proc.renamer.import_predictor_state(warmer.export_predictor_state())
        if schedule.warmup:
            proc.run(max_insts=schedule.warmup)
            start = proc.stats.to_dict()
        else:
            start = None
        proc.run(max_insts=schedule.detail)
        end = proc.stats.to_dict()
        delta = combine_counters(end, start, sub) if start is not None else end

        committed, cycles, ipc, reuse_rate, alloc_saved = \
            _window_metrics(delta)
        if committed > 0:
            deltas.append(delta)
            insts_sampled += committed
            cycles_sampled += cycles
            window_ipc.append(ipc)
            window_reuse_rate.append(reuse_rate)
            window_alloc_saved.append(alloc_saved)
            window_shadow.append(_shadow_occupancy(proc.renamer))
        if start is not None:
            insts_warmup += start.get("committed") or 0

        # the window's renamer trained its predictors exactly; carry that
        # state back into the warmer for the next fast-forward stretch
        warmer.import_predictor_state(proc.renamer.export_predictor_state())
        warmer.reset_live()

    # the stream holds at least one period, so window 0 committed
    total = source.consumed
    summed = deltas[0]
    for delta in deltas[1:]:
        summed = combine_counters(summed, delta)
    payload = scale_counters(summed, total / insts_sampled)
    payload["committed"] = total

    return SampledStats(
        est=SimStats.from_dict(payload),
        schedule=(schedule.period, schedule.window, schedule.warmup),
        schedule_seed=schedule.seed,
        phase_offset=phase,
        windows=len(deltas),
        insts_total=total,
        insts_sampled=insts_sampled,
        insts_warmup=insts_warmup,
        insts_fast_forwarded=total - insts_sampled - insts_warmup,
        cycles_sampled=cycles_sampled,
        window_ipc=window_ipc,
        window_reuse_rate=window_reuse_rate,
        window_alloc_saved_rate=window_alloc_saved,
        window_shadow_occupancy=window_shadow,
    )

"""Functional fast-forward with microarchitectural predictor warming.

The fast-forward mode of the sampling engine scans the packed trace
columns at full speed — no renaming, no scheduling, no instruction
objects — while still training the state that must carry across
measurement windows:

* the **branch predictor** (shared :class:`~repro.frontend.branch_predictor.BranchUnit`
  object, also used by the detailed windows) observes every branch;
* the **memory hierarchy** (the shared
  :class:`~repro.mem.hierarchy.MemoryHierarchy`, also used by the
  detailed windows) sees every instruction-fetch line change and every
  data access;
* the **register-type predictor** and **single-use predictor** are
  trained against an architectural def-use model of the sharing scheme:
  per logical register the warmer tracks the live value's consumer count,
  first-consumer PC and the reuse chain of its backing register, and
  replays the paper's training rules (release decrement, extra-use reset,
  shadow-starvation increment, single-use confirm/deny) without
  simulating physical registers.

The warmed tables are handed to each detailed window's renamer through
:meth:`~repro.core.renamer.BaseRenamer.import_predictor_state`, and the
window's (exactly trained) tables are read back afterwards, so
fast-forward only ever has to *bridge* the gaps between windows.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.frontend.branch_predictor import BranchUnit
from repro.mem.hierarchy import LINE_BYTES, MemoryHierarchy
from repro.pipeline.config import MachineConfig
from repro.workloads.trace_codec import F_TAKEN, OP_INFO_TABLE


class _LiveValue:
    """One live logical-register value and its backing reuse chain."""

    __slots__ = ("alloc_index", "bank", "version", "uses", "first_pc",
                 "multi_use", "stale", "reused_by_pc")

    def __init__(self, alloc_index: int, bank: int, version: int = 0) -> None:
        self.alloc_index = alloc_index  # type-predictor entry that allocated
        self.bank = bank  # predicted bank == shadow cells available
        self.version = version  # reuses performed on the backing register
        self.uses = 0  # consumers of the current value
        self.first_pc: Optional[int] = None  # first consumer's PC
        self.multi_use = False  # a second consumer appeared
        self.stale = False  # register usurped by a predicted reuse
        self.reused_by_pc = 0  # the reusing consumer's PC (repair training)


class FunctionalWarmer:
    """Consumes instructions functionally while warming the predictors."""

    def __init__(self, config: MachineConfig, branch_unit: BranchUnit,
                 hierarchy: MemoryHierarchy) -> None:
        self.branch_unit = branch_unit
        self.hierarchy = hierarchy
        # i-fetch warming is line-grained (as in the detailed fetch unit):
        # consecutive pcs on one line touch the L1-I once
        self._last_fetch_line = -1
        self.track = config.scheme in ("sharing", "hinted")
        self.live: dict = {}  # RegRef -> _LiveValue
        self._first_use: list = []  # reused per-inst scratch (no allocs)
        if self.track:
            # probe renamer: guarantees the warmed tables match the window
            # renamers' predictor geometry exactly (banks, entries)
            probe = config.make_renamer()
            self.predictor = probe.predictor
            self.single_use = probe.single_use
            self.max_version = next(
                iter(probe.domains.values())).prt.max_version
        else:
            self.predictor = None
            self.single_use = None
            self.max_version = 0

    # ------------------------------------------------------------------ state handoff
    def export_predictor_state(self) -> dict:
        if not self.track:
            return {}
        return {
            "type_predictor": list(self.predictor.table),
            "single_use": list(self.single_use.table),
        }

    def import_predictor_state(self, state: dict) -> None:
        if not self.track or not state:
            return
        for name, target in (("type_predictor", self.predictor),
                             ("single_use", self.single_use)):
            table = state.get(name)
            if table is None:
                continue
            if len(table) != len(target.table):
                # a geometry mismatch silently discarding warmed state
                # would corrupt every downstream window measurement
                raise ValueError(
                    f"{name} geometry mismatch: imported table has "
                    f"{len(table)} entries, warmer expects "
                    f"{len(target.table)}")
            target.table = list(table)

    def reset_live(self) -> None:
        """Drop def-use records (a detailed window made them stale)."""
        self.live.clear()

    # ------------------------------------------------------------------ fast-forward
    def fast_forward(self, source, count: int) -> int:
        """Consume up to ``count`` instructions of a
        :class:`~repro.sampling.engine._ColumnarSource` with full
        warming, straight from the packed trace columns."""
        lo, hi = source.advance(count)
        if hi > lo:
            if self.track:
                self._warm_columns_tracked(source.cols, lo, hi)
            else:
                self._warm_columns(source.cols, lo, hi)
        return hi - lo

    def skim(self, source, count: int) -> int:
        """Consume up to ``count`` instructions warming only the branch
        predictor (its global history must stay continuous and it is
        cheap to train).  Used far ahead of the next window, where
        cache/def-use warming would be overwritten before it is sampled
        — the engine switches to :meth:`fast_forward` for the warming
        zone directly preceding each window.  This is a branch-index
        scan: only the branch instructions of the skipped range are
        ever touched.
        """
        lo, hi = source.advance(count)
        if hi > lo:
            self._skim_columns(source.cols, lo, hi)
            if self.track:
                # def-use records refer to values the skim skipped over
                self.live.clear()
        return hi - lo

    # ------------------------------------------------------------ columnar
    def _skim_columns(self, cols, lo: int, hi: int) -> None:
        """Branch-predictor training for ``[lo, hi)`` from the columns."""
        idx = cols.branch_indices()
        a = bisect_left(idx, lo)
        b = bisect_left(idx, hi)
        if a == b:
            return
        observe = self.branch_unit.observe_packed
        infos = OP_INFO_TABLE
        ops = cols.op_bytes
        flags = cols.flags
        pcs = cols.pcs
        next_pcs = cols.next_pcs
        for i in idx[a:b]:
            observe(infos[ops[i]], pcs[i], (flags[i] & F_TAKEN) != 0,
                    next_pcs[i])

    def _warm_columns(self, cols, lo: int, hi: int) -> None:
        """Untracked full warming for ``[lo, hi)`` from the columns.

        Two passes over event indexes instead of every instruction: the
        branch pass (the same scan as :meth:`_skim_columns`), then a
        two-way merge of the fetch-line-start and memory event indexes.
        The branch unit and the hierarchy share no state and neither
        reads the other's, so running them as separate passes leaves both
        bit-identical to warming one instruction at a time (the
        reference warmer in ``tests/reference_warmer.py``).  Within the
        hierarchy pass instruction order is kept — an instruction's
        i-fetch line check before its data access — because the
        hierarchy's LRU, prefetcher and writeback state are
        order-dependent (L1-I and L1-D share the L2).
        """
        self._skim_columns(cols, lo, hi)
        hierarchy = self.hierarchy
        line_bytes = LINE_BYTES
        pcs = cols.pcs
        fidx = cols.fetch_line_starts()
        flist = fidx[bisect_left(fidx, lo):bisect_left(fidx, hi)]
        if not flist or flist[0] != lo:
            # the range may start mid-run: index lo still needs its line
            # check against the tracking carried in from before the range
            flist.insert(0, lo)
        midx = cols.mem_indices()
        mlist = midx[bisect_left(midx, lo):bisect_left(midx, hi)]
        infos = OP_INFO_TABLE
        ops = cols.op_bytes
        mem_addrs = cols.mem_addrs
        inst_fetch = hierarchy.inst_fetch
        data_access = hierarchy.data_access
        last_line = self._last_fetch_line
        nf, nm = len(flist), len(mlist)
        jf = km = 0
        f = flist[0]
        m = mlist[0] if nm else hi
        while True:
            if f <= m:
                if f >= hi:
                    break
                # conditional for every event: a run start always differs
                # from the previous line, so this only ever filters the
                # synthetic event at lo — exactly one-at-a-time warming
                line = pcs[f] // line_bytes
                if line != last_line:
                    last_line = line
                    inst_fetch(pcs[f], False, 0)
                jf += 1
                f = flist[jf] if jf < nf else hi
            else:
                data_access(pcs[m], mem_addrs[m], infos[ops[m]].is_store, 0)
                km += 1
                m = mlist[km] if km < nm else hi
        self._last_fetch_line = last_line

    def _warm_columns_tracked(self, cols, lo: int, hi: int) -> None:
        """Tracked (sharing/hinted) full warming for ``[lo, hi)``.

        Branch and hierarchy warming go through the same passes as the
        untracked path; the def-use model — which needs every
        instruction's sources and destination — runs as a second,
        tracking-only pass.  The two passes mutate disjoint state
        (branch unit / caches / fetch-line tracking vs. live set /
        type and single-use predictor tables) and neither reads the
        other's, so the phase split leaves every table bit-identical to
        warming one instruction at a time.
        """
        self._warm_columns(cols, lo, hi)
        track = self._track_fields
        pcs = cols.pcs
        srcss = cols.srcss
        dests = cols.dests
        for i in range(lo, hi):
            track(pcs[i], srcss[i], dests[i])

    def _track_fields(self, pc: int, srcs, dest) -> None:
        """One instruction's def-use tracking (type/single-use predictor
        training)."""
        if dest is None and not srcs:
            return
        live = self.live
        predictor = self.predictor
        single_use = self.single_use

        # ---- sources: consumer counting + stale-value repairs -------------
        first_use = self._first_use  # (RegRef, _LiveValue) scratch
        first_use.clear()
        for j, src in enumerate(srcs):
            if j and (src == srcs[0]
                      or (j >= 2 and src in srcs[1:j])):
                continue  # same operand twice (e.g. ADD r1, r1, r1)
            rec = live.get(src)
            if rec is None:
                continue
            if rec.stale:
                # single-use misprediction: a predicted reuse took this
                # value's register, yet here is another consumer — repair
                # (train the reuser down, reset the allocating entry) and
                # model the evacuation as a fresh allocation
                single_use.train_bad(rec.reused_by_pc)
                predictor.on_extra_use(rec.alloc_index)
                bank, index = predictor.predict(pc)
                rec.alloc_index = index
                rec.bank = bank
                rec.version = 0
                rec.stale = False
                rec.multi_use = False
            rec.uses += 1
            if rec.uses == 1:
                rec.first_pc = pc
                first_use.append((src, rec))
            elif rec.uses == 2 and not rec.multi_use:
                rec.multi_use = True
                if rec.bank > 0:
                    # predicted single-use, observed multi-consumer: reset
                    predictor.on_extra_use(rec.alloc_index)

        # ---- destination: reuse-chain / allocation modelling ---------------
        if dest is None:
            return
        old = live.get(dest)
        reused = False

        # guaranteed reuse: the instruction redefines a register whose
        # value it just consumed first (src == dest)
        if old is not None and not old.stale \
                and any(ref == dest for ref, _rec in first_use):
            if old.version >= self.max_version:
                pass  # chain counter saturated: lost reuse, no training
            elif old.version >= old.bank:
                predictor.on_shadow_starvation(old.alloc_index)
            else:
                old.version += 1
                old.uses = 0
                old.first_pc = None
                old.multi_use = False
                reused = True

        # predicted reuse: first consumer of another value, predicted to be
        # the only consumer — the value's register hosts the new value
        if not reused:
            for ref, rec in first_use:
                if ref == dest or ref.cls is not dest.cls or rec.uses != 1:
                    continue
                if not single_use.predict(pc):
                    continue
                if rec.version >= self.max_version:
                    continue
                if rec.version >= rec.bank:
                    predictor.on_shadow_starvation(rec.alloc_index)
                    continue
                fresh = _LiveValue(rec.alloc_index, rec.bank, rec.version + 1)
                rec.stale = True
                rec.reused_by_pc = pc
                live[dest] = fresh
                reused = True
                break

        if not reused:
            bank, index = predictor.predict(pc)
            live[dest] = _LiveValue(index, bank)

        if old is not None and live[dest] is not old:
            self._close(old)

    def _close(self, rec: _LiveValue) -> None:
        """The value died (redefined): release-time predictor training."""
        if rec.stale:
            return  # register lives on under the reusing value's record
        if rec.uses == 1 and rec.first_pc is not None and not rec.multi_use:
            # confirmed single-use value that was not reused
            self.single_use.train_good(rec.first_pc, was_denied=True)
        self.predictor.on_release(
            alloc_index=rec.alloc_index,
            predicted_bank=rec.bank,
            actual_reuses=rec.version,
            extra_use=False,
            lost_reuse=0,
        )

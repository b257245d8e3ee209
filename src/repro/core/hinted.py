"""Compiler-hinted sharing renamer (the Jones et al. comparator).

The paper's related work (Section VII) discusses compiler-directed early
register release [Jones et al., PACT 2005]: the compiler marks last uses
so the hardware can release/reuse registers, at the cost of ISA changes
and compiler support.  This renamer models that approach on top of the
paper's sharing substrate: the workload generator embeds *static*
plan-level hints — per source, "this instruction is the value's only
consumer"; per destination, the value's forward chain depth — and the
renamer uses them instead of the two hardware predictors.

The interesting (and honest) finding, asserted by
``benchmarks/test_ablation_hints.py``: the paper's *learned* predictors
match or beat the static hints, because they adapt to dynamic effects the
static plan cannot see (cross-logical chain entanglement in shared
registers, bank contention, values whose consumption pattern varies by
path).  This supports the paper's Section VII position that hardware
prediction obviates ISA/compiler support.

With hint-less workloads (functional programs) the scheme degrades to
guaranteed-only reuse.
"""

from __future__ import annotations

from repro.core.sharing import SharingRenamer
from repro.isa.dyninst import DynInst


class HintedSharingRenamer(SharingRenamer):
    """Sharing renamer driven by static single-use hints instead of the
    hardware predictors.

    The ``hinted`` scheme has no generated kernel, so it always runs on
    the naive cycle loop.
    """

    def _single_use_prediction(self, dyn: DynInst, src_index: int,
                               dry_run: bool = False) -> bool:
        hints = dyn.hint_src_single_use
        if src_index < len(hints):
            return bool(hints[src_index])
        return False

    def _bank_prediction(self, dyn: DynInst) -> tuple[int, int]:
        """Depth-matched placement: a register hosting a depth-d chain
        needs d shadow cells; a plain single-use value needs one."""
        index = self.predictor.index_of(dyn.pc)
        if dyn.hint_dest_single_use:
            bank = max(1, min(3, dyn.hint_reuse_depth))
        else:
            bank = 0
        return bank, index

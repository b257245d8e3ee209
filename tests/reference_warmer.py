"""One-instruction-at-a-time fast-forward: the test oracle of the warmer.

:class:`ReferenceWarmer` takes every skipped instruction from the source
as a :class:`~repro.isa.dyninst.DynInst` and warms the branch unit, the
memory hierarchy and (under ``sharing``/``hinted``) the def-use model in
program order.  The sampling engine's
:class:`~repro.sampling.warmer.FunctionalWarmer` does the same work as
passes over the packed trace columns; ``test_columnar_ff.py`` holds it
bit-identical to this class, warmer state and ``SampledStats`` alike.
"""

from __future__ import annotations

from repro.isa.dyninst import DynInst
from repro.sampling.warmer import FunctionalWarmer


class ReferenceWarmer(FunctionalWarmer):
    """:class:`FunctionalWarmer` that consumes its source one
    :meth:`take` at a time."""

    def fast_forward(self, source, count: int) -> int:
        take = source.take
        consumed = 0
        while consumed < count:
            dyn = take()
            if dyn is None:
                break
            self.observe(dyn)
            consumed += 1
        return consumed

    def skim(self, source, count: int) -> int:
        observe = self.branch_unit.observe
        take = source.take
        consumed = 0
        while consumed < count:
            dyn = take()
            if dyn is None:
                break
            consumed += 1
            if dyn.info.is_branch:
                observe(dyn)
        if consumed and self.track:
            # def-use records refer to values the skim skipped over
            self.live.clear()
        return consumed

    def observe(self, dyn: DynInst) -> None:
        """Warm the predictors with one architecturally executed inst."""
        info = dyn.info
        pc = dyn.pc
        if info.is_branch:
            self.branch_unit.observe(dyn)
        hierarchy = self.hierarchy
        line = pc // self._line_bytes
        if line != self._last_fetch_line:
            self._last_fetch_line = line
            hierarchy.inst_fetch(pc, False, 0)
        mem_addr = dyn.mem_addr
        if mem_addr is not None and (info.is_load or info.is_store):
            hierarchy.data_access(pc, mem_addr, info.is_store, 0)
        if self.track:
            self._track_fields(pc, dyn.srcs, dyn.dest)

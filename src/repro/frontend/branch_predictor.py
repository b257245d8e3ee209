"""Branch direction/target prediction.

The simulator fetches down the *correct* path (see DESIGN.md): the
predictor's job is to decide, per fetched branch, whether the front end
would have predicted it correctly.  A misprediction stalls fetch until the
branch resolves and then charges the configured redirect penalty, which is
how the misprediction cost manifests in both the baseline and the proposed
renaming scheme.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.dyninst import DynInst
from repro.pipeline.stats import BranchStats

#: BTB entries (Table I: "2K BTB")
BTB_ENTRIES = 2048
#: counters in each direction-predictor table (bimodal, gshare, chooser)
TABLE_SIZE = 4096
#: global-history bits of the gshare component
HISTORY_BITS = 12
#: return-address-stack entries
RAS_DEPTH = 16


class _SaturatingCounterTable:
    """Table of :data:`TABLE_SIZE` 2-bit saturating counters (0..3, taken
    when >= 2)."""

    __slots__ = ("entries", "mask")

    def __init__(self, init: int = 1) -> None:
        self.entries = [init] * TABLE_SIZE
        self.mask = TABLE_SIZE - 1

    def counter(self, index: int) -> int:
        return self.entries[index & self.mask]

    def predict(self, index: int) -> bool:
        return self.entries[index & self.mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        index &= self.mask
        value = self.entries[index]
        if taken:
            self.entries[index] = min(3, value + 1)
        else:
            self.entries[index] = max(0, value - 1)


class BimodalPredictor:
    """PC-indexed 2-bit bimodal predictor."""

    def __init__(self) -> None:
        self.table = _SaturatingCounterTable()

    def predict(self, pc: int) -> bool:
        return self.table.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        self.table.update(pc, taken)


class GSharePredictor:
    """Global-history XOR-indexed 2-bit predictor."""

    def __init__(self) -> None:
        self.table = _SaturatingCounterTable()
        self.history = 0
        self.history_mask = (1 << HISTORY_BITS) - 1

    def _index(self, pc: int) -> int:
        return pc ^ self.history

    def predict(self, pc: int) -> bool:
        return self.table.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        self.table.update(self._index(pc), taken)
        self.history = ((self.history << 1) | int(taken)) & self.history_mask


class TournamentPredictor:
    """Alpha-21264-style tournament: a chooser selects, per PC, between a
    bimodal (local) and a gshare (global-history) component."""

    def __init__(self) -> None:
        self.bimodal = BimodalPredictor()
        self.gshare = GSharePredictor()
        self.chooser = _SaturatingCounterTable(init=2)  # favour gshare

    def predict(self, pc: int) -> bool:
        if self.chooser.predict(pc):
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        bimodal_correct = self.bimodal.predict(pc) == taken
        gshare_correct = self.gshare.predict(pc) == taken
        if bimodal_correct != gshare_correct:
            self.chooser.update(pc, gshare_correct)
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)


class BranchTargetBuffer:
    """Direct-mapped BTB with tags; holds predicted targets of taken branches."""

    def __init__(self) -> None:
        self.mask = BTB_ENTRIES - 1
        self.tags: list[Optional[int]] = [None] * BTB_ENTRIES
        self.targets: list[int] = [0] * BTB_ENTRIES

    def lookup(self, pc: int) -> Optional[int]:
        index = pc & self.mask
        if self.tags[index] == pc:
            return self.targets[index]
        return None

    def update(self, pc: int, target: int) -> None:
        index = pc & self.mask
        self.tags[index] = pc
        self.targets[index] = target


class ReturnAddressStack:
    """Fixed-depth return address stack for call/return prediction."""

    def __init__(self) -> None:
        self.stack: list[int] = []

    def push(self, addr: int) -> None:
        if len(self.stack) == RAS_DEPTH:
            self.stack.pop(0)
        self.stack.append(addr)

    def pop(self) -> Optional[int]:
        return self.stack.pop() if self.stack else None


class BranchUnit:
    """Combined direction predictor + BTB + RAS.

    ``observe(dyn)`` is called once per fetched branch; it returns True when
    the front end predicts the branch correctly (direction *and* target) and
    updates all predictor state with the actual outcome.
    """

    def __init__(self, kind: str = "gshare") -> None:
        if kind == "gshare":
            self.direction = GSharePredictor()
        elif kind == "bimodal":
            self.direction = BimodalPredictor()
        elif kind == "tournament":
            self.direction = TournamentPredictor()
        else:
            raise ValueError(f"unknown predictor kind {kind!r}")
        self.btb = BranchTargetBuffer()
        self.ras = ReturnAddressStack()
        self.stats = BranchStats()

    def observe(self, dyn: DynInst) -> bool:
        """Predict the fetched branch ``dyn``; returns prediction correctness."""
        return self.observe_packed(dyn.info, dyn.pc, dyn.taken, dyn.next_pc)

    def observe_packed(self, info, pc: int, taken: bool,
                       next_pc: int) -> bool:
        """:meth:`observe` on unpacked fields — the columnar fast-forward
        path trains the predictor straight from packed trace columns, so
        no :class:`DynInst` is required."""
        self.stats.branches += 1
        correct = True

        if info.is_return:
            predicted_target = self.ras.pop()
            correct = predicted_target == next_pc
        elif info.is_cond:
            pred_taken = self.direction.predict(pc)
            self.direction.update(pc, taken)
            if pred_taken != taken:
                correct = False
            elif taken:
                correct = self._check_target(pc, next_pc)
        else:  # unconditional jump / call
            correct = self._check_target(pc, next_pc)

        if info.is_call:
            self.ras.push(pc + 1)
        if not correct:
            self.stats.mispredicted += 1
        return correct

    def _check_target(self, pc: int, next_pc: int) -> bool:
        target = self.btb.lookup(pc)
        hit = target == next_pc
        if target is None:
            self.stats.btb_misses += 1
        self.btb.update(pc, next_pc)
        return hit

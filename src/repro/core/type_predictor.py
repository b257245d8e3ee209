"""Register type predictor — Section IV-D / Figure 7.

A 512-entry table of 2-bit counters indexed by a hash of the allocating
instruction's PC.  The entry value *is* the predicted bank: ``00`` means a
normal register (implicitly predicting the value is not single-use), and
``01``/``10``/``11`` predict registers with 1/2/3 shadow cells (the value
is predicted to be reused that many times).

Update rules, verbatim from the paper:

* at release, if not all allocated shadow copies were used, the entry that
  allocated the register is decremented;
* if a register predicted single-use is detected to be used more than
  once, the entry is reset to zero;
* if a first-use reuse attempt fails because the register has no free
  shadow cell, the entry is incremented so the next allocation gets a
  register with more shadow copies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pipeline.stats import PredictorStats


class RegisterTypePredictor:
    """PC-indexed 2-bit bank predictor for new allocations."""

    def __init__(self, entries: int = 512, num_banks: int = 4) -> None:
        if entries & (entries - 1):
            raise ValueError("predictor size must be a power of two")
        self.entries = entries
        self.mask = entries - 1
        self.max_value = num_banks - 1
        self.table = [0] * entries
        self.stats = PredictorStats()

    def index_of(self, pc: int) -> int:
        """Simple hash of the PC (low bits folded with higher bits)."""
        return (pc ^ (pc >> 9)) & self.mask

    def predict(self, pc: int) -> tuple[int, int]:
        """Predicted bank for a new allocation; returns (bank, entry index)."""
        index = self.index_of(pc)
        self.stats.predictions += 1
        return self.table[index], index

    # ------------------------------------------------------------------ updates
    def on_release(
        self,
        alloc_index: int,
        predicted_bank: int,
        actual_reuses: int,
        extra_use: bool,
        lost_reuse: int,
    ) -> None:
        """Register released: train the allocating entry and classify (Fig 12)."""
        if alloc_index < 0:
            return  # initial-state register: no allocating prediction to train
        self.stats.releases += 1
        if actual_reuses == predicted_bank and not extra_use and lost_reuse == 0:
            self.stats.exact_hits += 1

        # --- Figure 12 classification --------------------------------------
        if extra_use:
            self.stats.reuse_incorrect += 1
        elif predicted_bank > 0 and actual_reuses > 0:
            self.stats.reuse_correct += 1
        elif predicted_bank > 0:
            self.stats.reuse_unused += 1
        elif lost_reuse > 0:
            self.stats.no_reuse_incorrect += 1
        else:
            self.stats.no_reuse_correct += 1

        # --- training -------------------------------------------------------
        if extra_use:
            self.table[alloc_index] = 0
        elif predicted_bank > 0 and actual_reuses < predicted_bank:
            self.table[alloc_index] = max(0, self.table[alloc_index] - 1)

    def on_shadow_starvation(self, alloc_index: int) -> None:
        """First-use reuse attempt failed: no free shadow cell (increment)."""
        if alloc_index >= 0:
            self.table[alloc_index] = min(self.max_value, self.table[alloc_index] + 1)

    def on_extra_use(self, alloc_index: int) -> None:
        """Register predicted single-use seen with a second consumer (reset)."""
        if alloc_index >= 0:
            self.table[alloc_index] = 0


@dataclass
class SingleUseStats:
    predictions: int = 0
    predicted_yes: int = 0
    confirmed_good: int = 0
    confirmed_bad: int = 0
    missed: int = 0  # denied a reuse that turned out to be single-use


class SingleUsePredictor:
    """Consumer-PC-indexed single-use predictor (Section IV-A2).

    When the first consumer of a value does *not* redefine the value's
    logical register, this predictor decides whether the consuming
    instruction is the value's only consumer and the physical register can
    be speculatively reused.  2-bit counters, initialised weakly-taken so
    cold sites speculate; sites whose reuses get repaired drift to
    not-taken, sites whose values are confirmed single-use saturate up.
    """

    def __init__(self, entries: int = 512) -> None:
        if entries & (entries - 1):
            raise ValueError("predictor size must be a power of two")
        self.mask = entries - 1
        self.table = [2] * entries
        self.stats = SingleUseStats()

    def index_of(self, pc: int) -> int:
        return (pc ^ (pc >> 9)) & self.mask

    def predict(self, pc: int) -> bool:
        self.stats.predictions += 1
        yes = self.table[self.index_of(pc)] >= 2
        if yes:
            self.stats.predicted_yes += 1
        return yes

    def train_good(self, pc: int, was_denied: bool = False) -> None:
        """The value this consumer read turned out to be single-use."""
        index = self.index_of(pc)
        self.table[index] = min(3, self.table[index] + 1)
        if was_denied:
            self.stats.missed += 1
        else:
            self.stats.confirmed_good += 1

    def train_bad(self, pc: int) -> None:
        """A reuse by this consumer was repaired (extra consumer appeared)."""
        index = self.index_of(pc)
        self.table[index] = max(0, self.table[index] - 1)
        self.stats.confirmed_bad += 1

"""Physical Register Table (PRT) — Section IV-A / Figure 4(b).

One entry per physical register holding:

* the **Read bit** — set when the *current* version of the register has
  been renamed as a source by at least one in-flight or committed
  instruction; a clear Read bit identifies the first consumer of a value;
* the **N-bit version counter** (2 bits in the paper) — appended to the
  physical register id in rename tags so the issue queue can distinguish up
  to ``2**N`` values sharing one register;
* bookkeeping for the register-type predictor: which predictor entry
  allocated this register and whether an extra (mispredicted) use was
  observed during its lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: bound on the per-register consumer training log
LOG_CAP = 16


@dataclass(slots=True)
class PRTEntry:
    read_bit: bool = False
    version: int = 0  # the N-bit counter: index of the current (newest) version
    alloc_index: int = -1  # predictor entry used to allocate this register
    #: the allocation-time single-use prediction (predicted bank > 0); kept
    #: separately from the actual bank because fallback allocation may put
    #: a not-predicted-single-use value into a shadow bank — such registers
    #: must not be speculatively reused through the predicted path
    predicted_single_use: bool = False
    extra_use: bool = False  # single-use misprediction observed this lifetime
    lost_reuse: int = 0  # reuse opportunities lost to missing shadow cells
    #: consumer-predictor training log: (consumer pc, version, reused?)
    consumers_log: list = field(default_factory=list)
    #: versions observed with more than one consumer
    multi_use_versions: set = field(default_factory=set)


class PhysicalRegisterTable:
    """PRT for one register class."""

    def __init__(self, num_regs: int, counter_bits: int = 2) -> None:
        self.num_regs = num_regs
        self.counter_bits = counter_bits
        self.max_version = (1 << counter_bits) - 1
        self.entries = [PRTEntry() for _ in range(num_regs)]

    def __getitem__(self, phys: int) -> PRTEntry:
        return self.entries[phys]

    def reset_entry(
        self, phys: int, alloc_index: int, predicted_single_use: bool = False
    ) -> None:
        """New allocation: Read bit and counter are cleared (Section IV-A2)."""
        entry = self.entries[phys]
        entry.read_bit = False
        entry.version = 0
        entry.alloc_index = alloc_index
        entry.predicted_single_use = predicted_single_use
        entry.extra_use = False
        entry.lost_reuse = 0
        entry.consumers_log = []
        entry.multi_use_versions = set()

    def reuse(self, phys: int) -> int:
        """Advance to the next version (a reuse); returns the new version.

        The Read bit is cleared: the new version has no consumers yet.
        """
        entry = self.entries[phys]
        if entry.version >= self.max_version:
            raise AssertionError(f"reuse of p{phys} with saturated counter")
        entry.version += 1
        entry.read_bit = False
        return entry.version

    def saturated(self, phys: int) -> bool:
        return self.entries[phys].version >= self.max_version

    def restore(self, phys: int, version: int) -> None:
        """Precise-state recovery: roll the entry back to a committed version.

        The Read bit is set conservatively — the committed value may still
        have unseen consumers after the replayed instructions, so it must
        not be treated as never-read (reuse is merely inhibited; this is
        safe, never incorrect).
        """
        entry = self.entries[phys]
        entry.version = version
        entry.read_bit = True

    def corrupt(self, phys: int, *, version: Optional[int] = None,
                read_bit: Optional[bool] = None) -> tuple[int, bool]:
        """Fault injection: force the version counter and/or Read bit.

        Bypasses every protocol check (saturation, walk-back ordering) —
        the point is to model a bit flip in the PRT SRAM itself and let the
        campaign observe whether the invariant checker / oracle surfaces
        it, or whether the repair machinery masks it.  Returns the entry's
        previous ``(version, read_bit)`` for the injection record.
        """
        entry = self.entries[phys]
        previous = (entry.version, entry.read_bit)
        if version is not None:
            entry.version = version
        if read_bit is not None:
            entry.read_bit = read_bit
        return previous

"""Baseline merged-register-file renamer (release-on-commit).

This is the scheme "adopted by practically all current microprocessors"
that the paper baselines against (Section II): every decoded instruction
with a register destination allocates a fresh physical register from the
free list; the previous physical register mapped to the same logical
register is released when the redefining instruction commits.
"""

from __future__ import annotations

from collections import deque

from repro.core.map_table import MapTable
from repro.core.register_file import BankedRegisterFile, RegisterFileConfig
from repro.core.renamer import BaseRenamer, ReadyFn, Tag
from repro.isa.dyninst import DynInst
from repro.isa.registers import FP_REGS, INT_REGS, RegClass


class _Domain:
    """Per-register-class rename state."""

    def __init__(self, num_logical: int, num_phys: int) -> None:
        if num_phys < num_logical + 1:
            raise ValueError(
                f"need at least {num_logical + 1} physical registers, got {num_phys}"
            )
        self.num_logical = num_logical
        self.config = RegisterFileConfig.flat(num_phys)
        self.rf = BankedRegisterFile(self.config)
        self.map = MapTable(num_logical)
        self.retire_map = MapTable(num_logical)
        # FIFO free list: deque so allocation (popleft) is O(1)
        self.free: deque[int] = deque(range(num_logical, num_phys))
        for logical in range(num_logical):
            self.map.set(logical, (logical, 0))
            self.retire_map.set(logical, (logical, 0))


class ConventionalRenamer(BaseRenamer):
    """The conventional merged-RF renaming scheme."""

    def __init__(self, int_regs: int, fp_regs: int) -> None:
        super().__init__(_Domain(INT_REGS, int_regs), _Domain(FP_REGS, fp_regs))

    # ------------------------------------------------------------------ capacity
    def can_rename(self, dyn: DynInst) -> bool:
        if dyn.dest is None:
            return True
        return bool(self.domains[dyn.dest.cls].free)

    # ------------------------------------------------------------------ rename
    def rename(self, dyn: DynInst, is_ready: ReadyFn) -> list[DynInst]:
        self.stats.insts += 1
        dyn.src_tags = [
            (src.cls.value, *self.domains[src.cls].map.get(src.idx)) for src in dyn.srcs
        ]
        if dyn.dest is not None:
            self.stats.dest_insts += 1
            domain = self.domains[dyn.dest.cls]
            if not domain.free:
                raise AssertionError("rename called without a free register")
            phys = domain.free.popleft()
            prev = domain.map.get(dyn.dest.idx)
            dyn.prev_map = prev
            dyn.allocated_new = True
            dyn.alloc_bank = 0
            domain.map.set(dyn.dest.idx, (phys, 0))
            dyn.dest_tag = (dyn.dest.cls.value, phys, 0)
            self.stats.allocations += 1
            self.stats.allocations_per_bank[0] += 1
        return [dyn]

    # ------------------------------------------------------------------ commit
    def commit(self, dyn: DynInst) -> None:
        if dyn.dest is None or dyn.dest_tag is None:
            return
        domain = self.domains[dyn.dest.cls]
        old = domain.retire_map.get(dyn.dest.idx)
        new = dyn.dest_tag[1:]
        domain.retire_map.set(dyn.dest.idx, new)
        if old[0] != new[0]:
            domain.rf.drop_register(old[0])
            domain.free.append(old[0])
            self.stats.releases += 1

    # ------------------------------------------------------------------ walk-back
    def squash_to(self, squashed: list[DynInst]) -> int:
        """Undo renames youngest-first: restore mappings, refill the free
        list.  The conventional scheme needs no value restores."""
        for dyn in squashed:
            if dyn.dest is None or dyn.dest_tag is None:
                continue
            domain = self.domains[dyn.dest.cls]
            domain.map.set(dyn.dest.idx, dyn.prev_map)
            phys = dyn.dest_tag[1]
            domain.rf.drop_register(phys)
            domain.free.append(phys)
        return 0

    # ------------------------------------------------------------------ recovery
    def recover(self) -> int:
        diff = 0
        for domain in self.domains.values():
            diff += domain.map.diff_count(domain.retire_map)
            domain.map.copy_from(domain.retire_map)
            live = domain.retire_map.physical_regs()
            domain.free = deque(
                phys for phys in range(domain.config.total_regs) if phys not in live
            )
        self.stats.recoveries += 1
        self.stats.recovered_map_entries += diff
        return diff

    # ------------------------------------------------------------------ setup
    def free_registers(self, cls: RegClass) -> int:
        return len(self.domains[cls].free)

    # ------------------------------------------------------------------ fault injection
    def fault_targets(self) -> dict[str, list[Tag]]:
        """See :meth:`BaseRenamer.fault_targets`.

        The merged register file has no shadow cells: every stored value on
        an allocated register is potentially readable (by the maps or an
        in-flight consumer tag), so it classifies as *live*.  So does a free
        register that either map still references: under early release
        (the subclass) a *released* register may still be named by the
        retirement map until its redefiner commits (the paper's Section VII
        hazard), and the final-state check reads it, so a flip there is
        expected to be detected, not masked.  Under conventional renaming no
        mapped register is free, so the extra rule changes nothing there.
        """
        targets: dict[str, list[Tag]] = {"live": [], "shadow": [], "free": []}
        for cls, domain in self.domains.items():
            free = set(domain.free)
            referenced = {tag[0] for tag in domain.map.entries}
            referenced |= {tag[0] for tag in domain.retire_map.entries}
            for phys, version, _value in domain.rf.cells():
                kind = "free" if phys in free and phys not in referenced \
                    else "live"
                targets[kind].append((cls.value, phys, version))
            for phys in free:
                if phys not in referenced and not domain.rf.has(phys, 0):
                    targets["free"].append((cls.value, phys, 0))
        return targets

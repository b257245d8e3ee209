"""The proposed renaming scheme: physical register sharing (Section IV).

Implements the full mechanism of the paper:

* **source renaming** reads the map table, then the PRT: the Read bit of
  the current version is set, and the tag handed to the issue queue is
  ``(phys, version)``;
* **destination renaming** reuses a source's physical register instead of
  allocating when the instruction is the *first* consumer of the value
  (Read bit clear), the counter is not saturated, a shadow cell is free to
  hold the overwritten value, and the instruction is the *last* consumer —
  guaranteed when it redefines the same logical register, otherwise
  predicted (the allocation-time bank choice of the register-type
  predictor is the single-use prediction);
* **single-use misprediction repair** (Section IV-D1): when a renamed
  source's mapping points to an old version of a reused register, the
  stale value is evacuated to a freshly allocated register by injected
  move micro-ops — one µop if the reusing instruction has not executed
  yet, three if the value is already check-pointed in a shadow cell
  (Figure 8);
* **release** via retirement-map reference counting: a physical register
  returns to its bank's free list when the last retirement-map entry
  referencing it is overwritten by a committed redefiner — this mimics
  release-on-rename for reuses and release-on-commit otherwise
  (Section IV-A3);
* **precise-state recovery**: the rename map is restored from the
  retirement map; registers whose speculative versions were squashed are
  rolled back (shadow-cell recover commands), and the free lists are
  rebuilt from the set of committed-live registers (Section IV-B).
"""

from __future__ import annotations

from typing import Optional

from repro.core.free_list import BankedFreeList
from repro.core.map_table import MapTable
from repro.core.register_file import BankedRegisterFile, RegisterFileConfig
from repro.core.renamer import BaseRenamer, ReadyFn, Tag
from repro.core.prt import LOG_CAP, PhysicalRegisterTable
from repro.core.type_predictor import RegisterTypePredictor, SingleUsePredictor
from repro.isa.dyninst import DynInst
from repro.isa.opcodes import Op
from repro.isa.registers import FP_REGS, INT_REGS, RegClass, RegRef


class _Domain:
    """Per-register-class rename state for the sharing scheme."""

    def __init__(self, num_logical: int, config: RegisterFileConfig, counter_bits: int) -> None:
        if config.total_regs < num_logical + 1:
            raise ValueError(
                f"need at least {num_logical + 1} physical registers, "
                f"got {config.total_regs}"
            )
        self.num_logical = num_logical
        self.config = config
        self.rf = BankedRegisterFile(config)
        self.map = MapTable(num_logical)
        self.retire_map = MapTable(num_logical)
        self.free = BankedFreeList(config)
        self.prt = PhysicalRegisterTable(config.total_regs, counter_bits)
        self.refcount = [0] * config.total_regs
        self._temp_counter = 0
        #: shadow cells per physical register (shadow_cells_of is O(banks))
        self.shadow_of = tuple(
            config.shadow_cells_of(phys) for phys in range(config.total_regs)
        )

        # Initial committed state: one register per logical, preferring the
        # conventional bank.  Read bits start set (the initial values'
        # consumer history is unknown, so reuse is inhibited — safe).
        for logical in range(num_logical):
            allocation = self.free.allocate(0)
            assert allocation is not None
            phys, _bank = allocation
            self.map.set(logical, (phys, 0))
            self.retire_map.set(logical, (phys, 0))
            self.refcount[phys] = 1
            entry = self.prt[phys]
            entry.read_bit = True
            entry.version = 0
            entry.alloc_index = -1

    def next_temp(self) -> int:
        """Fresh auxiliary-register id for repair micro-ops (negative)."""
        self._temp_counter -= 1
        return self._temp_counter


class SharingRenamer(BaseRenamer):
    """Register renaming with physical register sharing."""

    def __init__(
        self,
        int_config: RegisterFileConfig,
        fp_config: RegisterFileConfig,
        counter_bits: int = 2,
        predictor_entries: int = 512,
    ) -> None:
        super().__init__(_Domain(INT_REGS, int_config, counter_bits),
                         _Domain(FP_REGS, fp_config, counter_bits))
        self.counter_bits = counter_bits
        max_banks = max(int_config.num_banks, fp_config.num_banks)
        self.predictor = RegisterTypePredictor(predictor_entries,
                                               num_banks=max_banks)
        self.single_use = SingleUsePredictor(predictor_entries)

    # ====================================================================== helpers
    def _single_use_prediction(self, dyn: DynInst, src_index: int,
                               dry_run: bool = False) -> bool:
        """Is ``dyn`` predicted to be the only consumer of source ``src_index``?

        Overridden by the oracle renamer; ``dry_run`` suppresses stats.
        """
        if dry_run:
            return self.single_use.table[self.single_use.index_of(dyn.pc)] >= 2
        return self.single_use.predict(dyn.pc)

    def _bank_prediction(self, dyn: DynInst) -> tuple[int, int]:
        """(predicted bank, predictor index) for a new allocation."""
        return self.predictor.predict(dyn.pc)

    def _stale(self, domain: _Domain, logical: int) -> Optional[tuple[int, int]]:
        """If the mapping of ``logical`` points below the current version,
        return (phys, stale version); else None."""
        phys, version = domain.map.entries[logical]
        if version < domain.prt.entries[phys].version:
            return phys, version
        return None

    def _reusable_via(
        self, domain: _Domain, phys: int, version: int, first_use: bool,
        guaranteed: bool, dyn: DynInst, src_index: int,
    ) -> bool:
        """Pure eligibility check (no mutation) for reuse through a source."""
        entry = domain.prt.entries[phys]
        if entry.version != version or not first_use:
            return False
        if not guaranteed and not self._single_use_prediction(dyn, src_index,
                                                              dry_run=True):
            return False  # the single-use predictor says no
        if entry.version >= domain.prt.max_version:
            return False
        return entry.version < domain.shadow_of[phys]

    # ====================================================================== capacity
    def uops_needed(self, dyn: DynInst, is_ready: ReadyFn) -> int:
        total = 0
        seen: set[tuple[int, int]] = set()
        for src in dyn.srcs:
            key = (src.cls.value, src.idx)
            if key in seen:
                continue
            seen.add(key)
            domain = self.domains[src.cls]
            stale = self._stale(domain, src.idx)
            if stale is None:
                continue
            phys, version = stale
            checkpointed = is_ready((src.cls.value, phys, version + 1))
            total += 3 if checkpointed else 1
        return total

    def can_rename(self, dyn: DynInst) -> bool:
        """Rename blocks only when no register is free *and* no reuse is
        possible (Section IV-A4).  Repairs each consume one new register."""
        domains = self._domains_by_value
        srcs = dyn.srcs
        # fast path: ample registers everywhere (the common case)
        worst_case = len(srcs) + 1
        if (domains[0].free._count >= worst_case
                and domains[1].free._count >= worst_case):
            return True
        needed = [0, 0]  # per class value
        seen: list[tuple[int, int]] = []
        repaired: list[tuple[int, int]] = []
        for src in srcs:
            cls_value = src.cls.value
            key = (cls_value, src.idx)
            if key in seen:
                continue
            seen.append(key)
            domain = domains[cls_value]
            phys, version = domain.map.entries[src.idx]
            if version < domain.prt.entries[phys].version:
                needed[cls_value] += 1
                repaired.append(key)

        dest = dyn.dest
        if dest is not None:
            dest_cls_value = dest.cls.value
            domain = domains[dest_cls_value]
            map_entries = domain.map.entries
            prt_entries = domain.prt.entries
            reusable = False
            read_track: dict[tuple[int, int], bool] = {}
            for index, src in enumerate(srcs):
                if src.cls is not dest.cls:
                    continue
                if (dest_cls_value, src.idx) in repaired:
                    continue  # never reuse through a just-repaired source
                phys, version = map_entries[src.idx]
                tag = (phys, version)
                first_use = read_track.get(tag)
                if first_use is None:
                    first_use = not prt_entries[phys].read_bit
                    read_track[tag] = first_use
                if self._reusable_via(domain, phys, version, first_use,
                                      guaranteed=src == dest,
                                      dyn=dyn, src_index=index):
                    reusable = True
                    break
            if not reusable:
                needed[dest_cls_value] += 1

        if needed[0] and domains[0].free._count < needed[0]:
            return False
        if needed[1] and domains[1].free._count < needed[1]:
            return False
        return True

    # ====================================================================== rename
    def rename(self, dyn: DynInst, is_ready: ReadyFn) -> list[DynInst]:
        self.stats.insts += 1
        uops: list[DynInst] = []
        first_use: dict[tuple[int, int, int], bool] = {}
        repaired_srcs: set[int] = set()
        src_tags: list[Tag] = []

        # ---- rename sources (and repair stale single-use mispredictions) ----
        domains = self._domains_by_value
        for index, src in enumerate(dyn.srcs):
            cls_value = src.cls.value
            domain = domains[cls_value]
            phys, version = domain.map.entries[src.idx]
            if version < domain.prt.entries[phys].version:
                uops.extend(self._repair(dyn, index, src, phys, version,
                                         is_ready))
                repaired_srcs.add(index)
                phys, version = domain.map.entries[src.idx]
            entry = domain.prt.entries[phys]
            key = (cls_value, phys, version)
            if key not in first_use:
                first_use[key] = not entry.read_bit
                if entry.read_bit and entry.version == version:
                    # a second consumer of this version
                    entry.multi_use_versions.add(version)
                    if entry.predicted_single_use:
                        self.stats.multi_use_detected += 1
                        self.predictor.on_extra_use(entry.alloc_index)
            entry.read_bit = True
            src_tags.append(key)
        dyn.src_tags = src_tags

        # ---- rename destination ------------------------------------------------
        if dyn.dest is not None:
            self.stats.dest_insts += 1
            self._rename_dest(dyn, first_use, repaired_srcs)

        uops.append(dyn)
        return uops

    def _rename_dest(
        self,
        dyn: DynInst,
        first_use: dict[tuple[int, int, int], bool],
        repaired_srcs: set[int],
    ) -> None:
        dest = dyn.dest
        domain = self._domains_by_value[dest.cls.value]
        dyn.prev_map = domain.map.entries[dest.idx]

        # candidate sources: same class, dest-matching (guaranteed) first
        srcs = dyn.srcs
        order = [i for i in range(len(srcs)) if srcs[i] == dest]
        order.extend(i for i in range(len(srcs)) if srcs[i] != dest)
        for index in order:
            src = srcs[index]
            if src.cls is not dest.cls or index in repaired_srcs:
                continue
            _cls, phys, version = dyn.src_tags[index]
            entry = domain.prt.entries[phys]
            if entry.version != version:
                continue  # stale (shouldn't happen post-repair) — be safe
            if not first_use[(src.cls.value, phys, version)]:
                if src == dest:
                    self.stats.lost_reuse_not_first_use += 1
                continue
            if (src != dest and not self._single_use_prediction(dyn, index)
                    and domain.free._count > 0):
                # predicted not to be the only consumer: do not speculate
                # (a lost opportunity if wrong — trained at release).  With
                # zero free registers the denial is overridden: rename may
                # only block when no register is free AND no reuse is
                # possible (Section IV-A4), and can_rename approved this
                # instruction under that rule — a repair µop renamed just
                # above can have both consumed the last free register and
                # trained this very PC's prediction downward, so honouring
                # the flipped prediction here would leave the destination
                # with neither a reuse nor a free register
                entry.lost_reuse += 1
                if len(entry.consumers_log) < LOG_CAP:
                    entry.consumers_log.append((dyn.pc, version, "denied_pred"))
                self.stats.lost_reuse_not_predicted += 1
                continue
            if entry.version >= domain.prt.max_version:
                self.stats.lost_reuse_saturated += 1
                continue
            if entry.version >= domain.shadow_of[phys]:
                # first+last use, but no shadow cell free: the single-use
                # prediction under-provisioned — train upward (Section IV-D)
                entry.lost_reuse += 1
                if len(entry.consumers_log) < LOG_CAP:
                    entry.consumers_log.append((dyn.pc, version, "denied_cap"))
                self.predictor.on_shadow_starvation(entry.alloc_index)
                self.stats.lost_reuse_no_shadow += 1
                continue
            # ---- reuse! -----------------------------------------------------
            new_version = domain.prt.reuse(phys)
            domain.map.set(dest.idx, (phys, new_version))
            dyn.dest_tag = (dest.cls.value, phys, new_version)
            dyn.reused_src = index
            self.stats.reuses += 1
            if src == dest:
                self.stats.reuses_guaranteed += 1
            else:
                self.stats.reuses_predicted += 1
                if len(entry.consumers_log) < LOG_CAP:
                    entry.consumers_log.append((dyn.pc, version, "reused"))
            return

        # ---- no reuse possible: allocate a new register ------------------------
        predicted_bank, pred_index = self._bank_prediction(dyn)
        bank = min(predicted_bank, domain.config.num_banks - 1)
        allocation = domain.free.allocate(bank)
        if allocation is None:
            raise AssertionError("rename called without a free register")
        phys, actual_bank = allocation
        if actual_bank != bank:
            self.stats.fallback_allocations += 1
        domain.rf.drop_register(phys)
        domain.prt.reset_entry(phys, pred_index,
                               predicted_single_use=predicted_bank > 0)
        domain.map.set(dest.idx, (phys, 0))
        dyn.dest_tag = (dest.cls.value, phys, 0)
        dyn.allocated_new = True
        dyn.alloc_bank = actual_bank
        self.stats.allocations += 1
        self.stats.allocations_per_bank[actual_bank] += 1

    # ====================================================================== repair
    def _repair(
        self,
        dyn: DynInst,
        src_index: int,
        src: RegRef,
        phys: int,
        stale_version: int,
        is_ready: ReadyFn,
    ) -> list[DynInst]:
        """Single-use misprediction: evacuate the stale value (Figure 8)."""
        domain = self.domains[src.cls]
        stale_entry = domain.prt[phys]
        stale_entry.extra_use = True
        stale_entry.multi_use_versions.add(stale_version)
        for consumer_pc, version, kind in stale_entry.consumers_log:
            if kind == "reused" and version == stale_version:
                self.single_use.train_bad(consumer_pc)
                break
        self.predictor.on_extra_use(stale_entry.alloc_index)
        self.stats.repairs += 1

        # allocate the new home for the value
        predicted_bank, pred_index = self._bank_prediction(dyn)
        bank = min(predicted_bank, domain.config.num_banks - 1)
        allocation = domain.free.allocate(bank)
        if allocation is None:
            raise AssertionError("repair without a free register")
        new_phys, _actual_bank = allocation
        domain.rf.drop_register(new_phys)
        domain.prt.reset_entry(new_phys, pred_index,
                               predicted_single_use=predicted_bank > 0)
        self.stats.allocations += 1
        self.stats.allocations_per_bank[_actual_bank] += 1

        # µop count: 3 if the reusing instruction already executed (value is
        # check-pointed in a shadow cell), else 1 (Figure 8, cases 2a / 2b)
        checkpointed = is_ready((src.cls.value, phys, stale_version + 1))
        steps = 3 if checkpointed else 1
        self.stats.repair_uops += steps

        value = dyn.src_values[src_index] if src_index < len(dyn.src_values) else None
        if value is None:
            # no recorded operand value (wrong-path consumer): the moved
            # value is meaningless, but the chain must still produce one so
            # the scoreboard/register file stay consistent
            value = 0 if src.cls is RegClass.INT else 0.0
        mov_op = Op.MOV if src.cls is RegClass.INT else Op.FMOV
        uops: list[DynInst] = []
        prev_tag: Tag = (src.cls.value, phys, stale_version)
        for step in range(steps):
            last = step == steps - 1
            uop = DynInst(
                seq=dyn.seq,
                pc=dyn.pc,
                op=mov_op,
                dest=src if last else None,
                srcs=(src,),
                micro_op=True,
                pre_renamed=True,
                wrong_path=dyn.wrong_path,
            )
            uop.src_tags = [prev_tag]
            uop.src_values = () if dyn.wrong_path else (value,)
            if last:
                uop.dest_tag = (src.cls.value, new_phys, 0)
                uop.prev_map = (phys, stale_version)
                uop.allocated_new = True
            else:
                uop.dest_tag = (src.cls.value, domain.next_temp(), 0)
            uop.result = value
            prev_tag = uop.dest_tag
            uops.append(uop)

        domain.map.set(src.idx, (new_phys, 0))
        return uops

    # ====================================================================== commit
    def commit(self, dyn: DynInst) -> None:
        dest_tag = dyn.dest_tag
        if dyn.dest is None or dest_tag is None:
            return
        domain = self._domains_by_value[dest_tag[0]]
        dest_idx = dyn.dest.idx
        old = domain.retire_map.entries[dest_idx]
        new = dest_tag[1:]
        if old == new:
            return
        domain.retire_map.entries[dest_idx] = new
        refcount = domain.refcount
        refcount[new[0]] += 1
        old_phys = old[0]
        refcount[old_phys] -= 1
        if refcount[old_phys] == 0:
            self._release(domain, old_phys)

    def _release(self, domain: _Domain, phys: int) -> None:
        entry = domain.prt[phys]
        missed_singles = 0
        for consumer_pc, version, kind in entry.consumers_log:
            if version not in entry.multi_use_versions:
                self.single_use.train_good(consumer_pc,
                                           was_denied=kind != "reused")
                if kind == "denied_pred":
                    # the paper's Figure 12 "no reuse incorrect" class is
                    # prediction-caused only; capacity starvation is an
                    # area trade-off, not a predictor error
                    missed_singles += 1
        self.predictor.on_release(
            alloc_index=entry.alloc_index,
            predicted_bank=domain.shadow_of[phys],
            actual_reuses=entry.version,
            extra_use=entry.extra_use,
            lost_reuse=missed_singles,
        )
        domain.rf.drop_register(phys)
        domain.free.release(phys)
        domain.prt.reset_entry(phys, -1)
        self.stats.releases += 1

    # ====================================================================== walk-back
    def squash_to(self, squashed: list[DynInst]) -> int:
        """Branch-misprediction walk-back (Section IV-B).

        ``squashed`` is youngest-first.  Allocations return to their bank's
        free list; reuses roll the PRT back one version — the overwritten
        value is restored from its shadow cell (counted and charged as
        recovery cycles by the pipeline).  Read bits stay conservatively
        set: a squashed consumer may have set them, and a set Read bit only
        inhibits a future reuse, never breaks correctness.
        """
        restores = 0
        for dyn in squashed:
            if dyn.dest is None or dyn.dest_tag is None:
                continue
            domain = self.domains[dyn.dest.cls]
            _cls, phys, version = dyn.dest_tag
            if dyn.micro_op:
                # repair µop: un-remap the evacuated logical register and
                # free the evacuation target
                domain.map.set(dyn.dest.idx, dyn.prev_map)
                domain.rf.drop_register(phys)
                domain.free.release(phys)
                domain.prt.reset_entry(phys, -1)
                continue
            domain.map.set(dyn.dest.idx, dyn.prev_map)
            if dyn.allocated_new:
                domain.rf.drop_register(phys)
                domain.free.release(phys)
                domain.prt.reset_entry(phys, -1)
            elif dyn.reused_src is not None:
                entry = domain.prt[phys]
                assert entry.version == version, "walk-back out of order"
                entry.version = version - 1
                entry.read_bit = True  # conservative
                domain.rf.drop_above(phys, version - 1)
                restores += 1
        return restores

    # ====================================================================== recovery
    def recover(self) -> int:
        diff = 0
        for domain in self.domains.values():
            diff += domain.map.diff_count(domain.retire_map)
            domain.map.copy_from(domain.retire_map)

            live: dict[int, int] = {}
            for tag in domain.retire_map.entries:
                assert tag is not None
                phys, version = tag
                live[phys] = max(live.get(phys, -1), version)

            domain.refcount = [0] * domain.config.total_regs
            for tag in domain.retire_map.entries:
                domain.refcount[tag[0]] += 1

            for phys in range(domain.config.total_regs):
                if phys in live:
                    domain.prt.restore(phys, live[phys])
                    domain.rf.drop_above(phys, live[phys])
                else:
                    domain.prt.reset_entry(phys, -1)
                    domain.rf.drop_register(phys)
            domain.free.rebuild(set(live))
        self.stats.recoveries += 1
        self.stats.recovered_map_entries += diff
        return diff

    # ====================================================================== sampling warmup
    def export_predictor_state(self) -> dict:
        return {
            "type_predictor": list(self.predictor.table),
            "single_use": list(self.single_use.table),
        }

    def import_predictor_state(self, state: dict) -> None:
        table = state.get("type_predictor")
        if table is not None and len(table) == len(self.predictor.table):
            self.predictor.table = list(table)
        table = state.get("single_use")
        if table is not None and len(table) == len(self.single_use.table):
            self.single_use.table = list(table)

    # ====================================================================== setup
    def free_registers(self, cls: RegClass) -> int:
        return self.domains[cls].free.free_count()

    def live_version_histogram(self) -> dict[int, int]:
        histogram: dict[int, int] = {}
        for domain in self.domains.values():
            for _phys, count in domain.rf.live_version_counts().items():
                histogram[count] = histogram.get(count, 0) + 1
        return histogram

    # ====================================================================== fault injection
    def fault_targets(self) -> dict[str, list[Tag]]:
        """See :meth:`BaseRenamer.fault_targets`.

        A stored cell is *live* when either map references its exact
        (phys, version) or it is the current PRT version (an in-flight
        destination awaiting commit).  Older stored versions referenced by
        neither map are *shadow* cells: only an already-renamed in-flight
        consumer can still read them, so flipping one is masked unless
        operand verification catches that consumer's read.
        """
        targets: dict[str, list[Tag]] = {"live": [], "shadow": [], "free": []}
        for cls, domain in self.domains.items():
            mapped = set(domain.map.entries) | set(domain.retire_map.entries)
            for phys, version, _value in domain.rf.cells():
                if domain.free.contains(phys):
                    # released with values still resident (transiently
                    # possible between release and reallocation drop)
                    targets["free"].append((cls.value, phys, version))
                elif ((phys, version) in mapped
                        or version == domain.prt.entries[phys].version):
                    targets["live"].append((cls.value, phys, version))
                else:
                    targets["shadow"].append((cls.value, phys, version))
            for phys in range(domain.config.total_regs):
                if domain.free.contains(phys) and not domain.rf.has(phys, 0):
                    targets["free"].append((cls.value, phys, 0))
        return targets

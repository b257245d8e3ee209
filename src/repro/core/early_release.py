"""Early-release renaming (the related-work comparator, Section VII).

Implements the Moudgill/Akkary-style scheme the paper positions itself
against: a physical register is released as soon as

* its value has been produced,
* every renamed consumer has read it (a pending-reads counter), and
* the logical register has been redefined (the *unmapped* flag),

instead of waiting for the redefining instruction to commit.  This frees
registers earlier than the conventional scheme — but, exactly as the paper
argues, the released value is gone: **precise exceptions cannot be
supported** because the committed state may reference a register that was
released and reallocated while its redefiner was still speculative.
:meth:`EarlyReleaseRenamer.recover` therefore refuses to run; use this
scheme only on exception-free workloads (the benchmark harness does, to
quantify what the paper's scheme gives up — nothing — relative to the
aggressive-release upper bound).
"""

from __future__ import annotations

from collections import deque

from repro.core.map_table import MapTable
from repro.core.register_file import BankedRegisterFile, RegisterFileConfig
from repro.core.renamer import BaseRenamer, ReadyFn, RenameStats, Tag, Value
from repro.isa.dyninst import DynInst
from repro.isa.registers import FP_REGS, INT_REGS, RegClass, RegRef


class PreciseStateUnavailable(RuntimeError):
    """Raised when an exception needs recovery under early release."""


class _PhysState:
    __slots__ = ("pending_reads", "produced", "unmapped", "released", "generation")

    def __init__(self) -> None:
        self.pending_reads = 0
        self.produced = False
        self.unmapped = False
        self.released = False
        self.generation = 0  # bumped at (re)allocation; guards stale releases

    def reset(self) -> None:
        self.pending_reads = 0
        self.produced = False
        self.unmapped = False
        self.released = False
        self.generation += 1


class _Domain:
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
        self.state = [_PhysState() for _ in range(num_phys)]
        for logical in range(num_logical):
            self.map.set(logical, (logical, 0))
            self.retire_map.set(logical, (logical, 0))
            self.state[logical].produced = True


class EarlyReleaseRenamer(BaseRenamer):
    """Release-on-last-read renaming (no precise exceptions).

    The ``early`` scheme has no generated kernel: it always runs on the
    naive cycle loop.
    """

    tracks_operand_reads = True

    #: a register can be released (and reallocated) as soon as its last
    #: consumer reads it — possibly before its producer commits — so the
    #: PRF value at commit time is unstable; only the quiesced final state
    #: (retirement map == rename map) is safe to inspect
    commit_time_value_stable = False

    def __init__(self, int_regs: int, fp_regs: int) -> None:
        self.domains = {
            RegClass.INT: _Domain(INT_REGS, int_regs),
            RegClass.FP: _Domain(FP_REGS, fp_regs),
        }
        #: domains indexed by RegClass.value (hot-path tag dispatch)
        self._domains_by_value = (
            self.domains[RegClass.INT], self.domains[RegClass.FP],
        )
        self.stats = RenameStats()
        self.early_releases = 0
        self.commit_releases = 0

    # ------------------------------------------------------------------ release
    def _try_release(self, domain: _Domain, phys: int) -> None:
        state = domain.state[phys]
        if (state.unmapped and state.produced and state.pending_reads == 0
                and not state.released):
            state.released = True
            domain.free.append(phys)
            self.early_releases += 1
            self.stats.releases += 1

    # ------------------------------------------------------------------ capacity
    def can_rename(self, dyn: DynInst) -> bool:
        if dyn.dest is None:
            return True
        return bool(self.domains[dyn.dest.cls].free)

    # ------------------------------------------------------------------ rename
    def rename(self, dyn: DynInst, is_ready: ReadyFn) -> list[DynInst]:
        self.stats.insts += 1
        src_tags = []
        for src in dyn.srcs:
            domain = self.domains[src.cls]
            phys, _version = domain.map.get(src.idx)
            domain.state[phys].pending_reads += 1
            src_tags.append((src.cls.value, phys, 0))
        dyn.src_tags = src_tags

        if dyn.dest is not None:
            self.stats.dest_insts += 1
            domain = self.domains[dyn.dest.cls]
            if not domain.free:
                raise AssertionError("rename called without a free register")
            phys = domain.free.popleft()
            domain.state[phys].reset()
            prev_phys, _ = domain.map.get(dyn.dest.idx)
            # remember the previous register *and its generation*: if it is
            # released early and reallocated before this instruction commits,
            # the commit-time release must not free the new tenant
            dyn.prev_map = (prev_phys, domain.state[prev_phys].generation)
            dyn.allocated_new = True
            domain.map.set(dyn.dest.idx, (phys, 0))
            dyn.dest_tag = (dyn.dest.cls.value, phys, 0)
            self.stats.allocations += 1
            self.stats.allocations_per_bank[0] += 1
            # the redefinition sets the previous register's unmapped flag
            prev_state = domain.state[prev_phys]
            prev_state.unmapped = True
            self._try_release(domain, prev_phys)
        return [dyn]

    # ------------------------------------------------------------------ hooks
    def on_operand_read(self, tag: Tag) -> None:
        """A consumer read its operand (called by the pipeline at issue)."""
        domain = self._domains_by_value[tag[0]]
        state = domain.state[tag[1]]
        state.pending_reads -= 1
        assert state.pending_reads >= 0, "pending-read underflow"
        self._try_release(domain, tag[1])

    # ------------------------------------------------------------------ commit
    def commit(self, dyn: DynInst) -> None:
        if dyn.dest is None or dyn.dest_tag is None:
            return
        domain = self.domains[dyn.dest.cls]
        new = dyn.dest_tag[1:]
        domain.retire_map.set(dyn.dest.idx, new)
        old_phys, old_generation = dyn.prev_map
        state = domain.state[old_phys]
        if (old_phys != new[0] and not state.released
                and state.generation == old_generation):
            # not released early (e.g. a never-read value): conventional path
            state.released = True
            domain.free.append(old_phys)
            self.commit_releases += 1
            self.stats.releases += 1

    # ------------------------------------------------------------------ recovery
    def recover(self) -> int:
        raise PreciseStateUnavailable(
            "early-release renaming discarded values still referenced by the "
            "committed state; precise exceptions are unsupported (this is the "
            "paper's Section VII argument against counter-based early release)"
        )

    # ------------------------------------------------------------------ values
    def write(self, tag: Tag, value: Value) -> None:
        domain = self._domains_by_value[tag[0]]
        domain.rf.write(tag[1], tag[2], value)
        state = domain.state[tag[1]]
        state.produced = True
        self._try_release(domain, tag[1])

    def read(self, tag: Tag) -> Value:
        return self._domains_by_value[tag[0]].rf.read(tag[1], tag[2])

    # ------------------------------------------------------------------ sampling warmup
    def export_predictor_state(self) -> dict:
        # releases are driven by read tracking, not PC-indexed prediction:
        # no predictor state to hand across sampling windows
        return {}

    def import_predictor_state(self, state: dict) -> None:
        pass

    # ------------------------------------------------------------------ setup
    def initial_tags(self) -> list[tuple[Tag, Value]]:
        pairs: list[tuple[Tag, Value]] = []
        for cls, domain in self.domains.items():
            zero: Value = 0 if cls is RegClass.INT else 0.0
            for logical in range(domain.num_logical):
                phys, version = domain.retire_map.get(logical)
                pairs.append(((cls.value, phys, version), zero))
        return pairs

    def committed_tag(self, ref: RegRef) -> Tag:
        return (ref.cls.value, *self.domains[ref.cls].retire_map.get(ref.idx))

    def free_registers(self, cls: RegClass) -> int:
        return len(self.domains[cls].free)

    # ------------------------------------------------------------------ fault injection
    def fault_targets(self) -> dict[str, list[Tag]]:
        """See :meth:`BaseRenamer.fault_targets`.

        No shadow cells, but one early-release subtlety: a *released*
        register may still be referenced by the retirement map (the paper's
        Section VII hazard — the redefiner that unmapped it has not
        committed).  Such cells classify as *live*: the final-state check
        reads them, so a flip there is expected to be detected, not masked.
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

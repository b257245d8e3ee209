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

from repro.core.conventional import ConventionalRenamer
from repro.core.renamer import BaseRenamer, ReadyFn, Tag, Value
from repro.isa.dyninst import DynInst


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


class EarlyReleaseRenamer(ConventionalRenamer):
    """Release-on-last-read renaming (no precise exceptions).

    Extends the conventional scheme: same flat register file, free list
    and allocation, plus per-register release state.  The ``early``
    scheme has no generated kernel: it always runs on the naive cycle
    loop.
    """

    tracks_operand_reads = True

    #: a register can be released (and reallocated) as soon as its last
    #: consumer reads it — possibly before its producer commits — so the
    #: PRF value at commit time is unstable; only the quiesced final state
    #: (retirement map == rename map) is safe to inspect
    commit_time_value_stable = False

    #: released registers are gone: no walk-back to a branch's point
    squash_to = BaseRenamer.squash_to

    def __init__(self, int_regs: int, fp_regs: int) -> None:
        super().__init__(int_regs, fp_regs)
        for domain in self.domains.values():
            domain.state = [_PhysState() for _ in range(domain.config.total_regs)]
            for logical in range(domain.num_logical):
                domain.state[logical].produced = True
        self.early_releases = 0
        self.commit_releases = 0

    # ------------------------------------------------------------------ release
    def _try_release(self, domain, phys: int) -> None:
        state = domain.state[phys]
        if (state.unmapped and state.produced and state.pending_reads == 0
                and not state.released):
            state.released = True
            domain.free.append(phys)
            self.early_releases += 1
            self.stats.releases += 1

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

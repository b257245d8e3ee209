"""Dynamic instruction instances.

A :class:`DynInst` is one executed instance of an instruction flowing
through the timing pipeline.  It carries (a) the architectural facts
recorded by whatever produced the stream — the functional executor for real
programs, or the statistical workload generator for SPEC-like traces — and
(b) mutable pipeline bookkeeping (rename tags, timestamps) that the core
fills in and that is reset when the instruction is replayed after a precise
exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.isa.opcodes import Op, OpInfo, OPCODES
from repro.isa.registers import RegRef

Value = Union[int, float]

#: Rename tag: (physical register id, version).  Version is always 0 for the
#: conventional renamer; the sharing renamer uses the PRT counter value.
Tag = tuple[int, int]


@dataclass(slots=True)
class DynInst:
    """One dynamic instruction."""

    seq: int
    pc: int
    op: Op
    dest: Optional[RegRef] = None
    srcs: tuple[RegRef, ...] = ()
    imm: Union[int, float, None] = None

    # --- control flow facts (valid when the op is a branch) ---------------
    taken: bool = False
    target: Optional[int] = None
    next_pc: int = 0

    # --- memory facts ------------------------------------------------------
    mem_addr: Optional[int] = None
    store_value: Optional[Value] = None

    # --- functional values, used for end-to-end verification ---------------
    result: Optional[Value] = None
    src_values: tuple[Value, ...] = ()

    # --- exception behaviour -------------------------------------------------
    #: raise a precise exception the first time this instruction executes
    faults: bool = False

    # --- micro-op support (single-use misprediction repair) ------------------
    micro_op: bool = False
    pre_renamed: bool = False

    # --- wrong-path speculation ------------------------------------------------
    #: fetched down a mispredicted path; never commits, never verified
    wrong_path: bool = False
    #: squashed by branch-resolution walk-back (ignore pending completions)
    squashed: bool = False

    # --- oracle hints (trace workloads only; used by the oracle renamer) -----
    #: per-source: this instruction is the value's only consumer
    hint_src_single_use: tuple = ()
    #: the value this instruction produces will have exactly one consumer
    hint_dest_single_use: bool = False
    #: forward chain depth of the produced value (bank-placement hint)
    hint_reuse_depth: int = 0

    # --- pipeline bookkeeping (reset on replay) -------------------------------
    dest_tag: Optional[Tag] = None
    src_tags: list = field(default_factory=list)
    prev_map: Optional[Tag] = None
    allocated_new: bool = False
    reused_src: Optional[int] = None
    alloc_bank: Optional[int] = None
    completed: bool = False
    exception_raised: bool = False
    mispredicted: bool = False
    fetch_cycle: int = -1
    rename_cycle: int = -1
    issue_cycle: int = -1
    complete_cycle: int = -1
    commit_cycle: int = -1

    #: back-reference to this instruction's live LSQ entry (set by the LSQ
    #: at insert, cleared at remove/flush); avoids a dict lookup per probe
    lsq_entry: Optional[object] = field(default=None, repr=False, compare=False)

    #: memoised OPCODES[self.op] (hot path: queried several times per stage)
    _info: Optional[OpInfo] = field(default=None, init=False, repr=False,
                                    compare=False)

    @property
    def info(self) -> OpInfo:
        info = self._info
        if info is None:
            info = OPCODES[self.op]
            self._info = info
        return info

    def reset_pipeline_state(self) -> None:
        """Clear pipeline bookkeeping before replaying after a squash."""
        if not self.pre_renamed:
            self.dest_tag = None
            self.src_tags = []
        self.prev_map = None
        self.allocated_new = False
        self.reused_src = None
        self.alloc_bank = None
        self.completed = False
        self.exception_raised = False
        self.mispredicted = False
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.commit_cycle = -1
        self.lsq_entry = None

    def __str__(self) -> str:
        dest = f" {self.dest}<-" if self.dest is not None else " "
        return f"[{self.seq}@{self.pc}] {self.op.value}{dest}{','.join(map(str, self.srcs))}"


class DynInstPool:
    """Free-pool recycler for :class:`DynInst` objects.

    Long streaming runs allocate one DynInst per dynamic instruction; with
    ``__slots__`` the objects are small but the allocator churn still
    dominates quiet workloads.  The functional executor acquires
    instances here (the synthetic workload generator does not) and the
    processor releases committed heads back — but only when no
    trace/oracle/hook can still hold a reference (the :class:`Processor`
    guards this).  Squashed
    wrong-path instructions are never released: the completion heap may
    still reference them.
    """

    __slots__ = ("_free", "allocated", "recycled")

    def __init__(self) -> None:
        self._free: list[DynInst] = []
        self.allocated = 0
        self.recycled = 0

    def acquire(
        self,
        seq: int,
        pc: int,
        op: Op,
        dest: Optional[RegRef] = None,
        srcs: tuple = (),
        imm: Union[int, float, None] = None,
        src_values: tuple = (),
        hint_src_single_use: tuple = (),
        hint_dest_single_use: bool = False,
    ) -> DynInst:
        free = self._free
        if not free:
            self.allocated += 1
            return DynInst(seq=seq, pc=pc, op=op, dest=dest, srcs=srcs,
                           imm=imm, src_values=src_values,
                           hint_src_single_use=hint_src_single_use,
                           hint_dest_single_use=hint_dest_single_use)
        self.recycled += 1
        dyn = free.pop()
        dyn.seq = seq
        dyn.pc = pc
        dyn.op = op
        dyn.dest = dest
        dyn.srcs = srcs
        dyn.imm = imm
        dyn.src_values = src_values
        dyn.hint_src_single_use = hint_src_single_use
        dyn.hint_dest_single_use = hint_dest_single_use
        # reset every remaining field to its dataclass default
        dyn.taken = False
        dyn.target = None
        dyn.next_pc = 0
        dyn.mem_addr = None
        dyn.store_value = None
        dyn.result = None
        dyn.faults = False
        dyn.micro_op = False
        dyn.pre_renamed = False
        dyn.wrong_path = False
        dyn.squashed = False
        dyn.hint_reuse_depth = 0
        dyn.dest_tag = None
        dyn.src_tags = []
        dyn.prev_map = None
        dyn.allocated_new = False
        dyn.reused_src = None
        dyn.alloc_bank = None
        dyn.completed = False
        dyn.exception_raised = False
        dyn.mispredicted = False
        dyn.fetch_cycle = -1
        dyn.rename_cycle = -1
        dyn.issue_cycle = -1
        dyn.complete_cycle = -1
        dyn.commit_cycle = -1
        dyn._info = OPCODES[op]
        dyn.lsq_entry = None
        return dyn

    def release(self, dyn: DynInst) -> None:
        self._free.append(dyn)

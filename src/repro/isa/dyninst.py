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

    # --- single-use hints (synthetic traces carry them, annotate_hints fills
    # them for programs; read by the hinted renamer, repro.core.hinted) -----
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


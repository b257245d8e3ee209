"""In-order functional executor.

Runs a :class:`~repro.isa.program.Program` architecturally (no timing) and
yields the dynamic instruction stream.  The out-of-order pipeline consumes
this stream for timing simulation and uses the recorded operand/result
values to verify, at issue and commit time, that register renaming never
corrupted dataflow.  The executor is also the *reference model* that
precise-exception tests compare recovered architectural state against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

from repro.isa.dyninst import DynInst
from repro.isa.memory import SparseMemory
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.isa.registers import FP_REGS, INT_REGS, RegClass, RegRef

Value = Union[int, float]

_I64_MASK = (1 << 64) - 1
_I64_SIGN = 1 << 63


def wrap_i64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's-complement."""
    value &= _I64_MASK
    return value - (1 << 64) if value & _I64_SIGN else value


def values_equal(a: Optional[Value], b: Optional[Value]) -> bool:
    """Value equality with NaN == NaN (verification semantics)."""
    return a == b or (a != a and b != b)


class FirstTouchFaults:
    """The first access to each page, in program order, raises a page fault.

    A page counts as touched from its first access on, so every later
    access to it hits, however far the executor runs ahead of the
    pipeline that replays the faulting instruction: the fault pattern is
    a function of the program alone, the same under every renaming
    scheme.  This is the synthetic stand-in for the paper's TLB-miss /
    page-fault example (Section IV-B): it creates exceptions that arrive
    while younger instructions have already overwritten shared physical
    registers.
    """

    def __init__(self) -> None:
        self.touched: set[int] = set()
        self.fault_count = 0

    def should_fault(self, addr: int) -> bool:
        page = addr >> 12  # 4 KiB pages
        if page in self.touched:
            return False
        self.touched.add(page)
        self.fault_count += 1
        return True


@dataclass
class ArchState:
    """Snapshot of architectural state (registers + memory)."""

    int_regs: list[int] = field(default_factory=lambda: [0] * INT_REGS)
    fp_regs: list[float] = field(default_factory=lambda: [0.0] * FP_REGS)
    mem: SparseMemory = field(default_factory=SparseMemory)

    def read(self, ref: RegRef) -> Value:
        regs = self.int_regs if ref.cls is RegClass.INT else self.fp_regs
        return regs[ref.idx]

    def write(self, ref: RegRef, value: Value) -> None:
        if ref.cls is RegClass.INT:
            self.int_regs[ref.idx] = wrap_i64(int(value))
        else:
            self.fp_regs[ref.idx] = float(value)

    def clone(self) -> "ArchState":
        return ArchState(list(self.int_regs), list(self.fp_regs), self.mem.copy())

    def diff_regs(self, int_regs: list, fp_regs: list) -> list[str]:
        """Registers where this state differs from the given register dump.

        NaN compares equal to NaN.  Returns human-readable entries such as
        ``"x3: expected 7, got 9"`` (expected = this state); empty when the
        register states agree.
        """
        diffs = []
        for prefix, mine, theirs in (("x", self.int_regs, int_regs),
                                     ("f", self.fp_regs, fp_regs)):
            for idx, (a, b) in enumerate(zip(mine, theirs)):
                if not values_equal(a, b):
                    diffs.append(f"{prefix}{idx}: expected {a!r}, got {b!r}")
        return diffs


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        return math.inf if a > 0 else (-math.inf if a < 0 else 0.0)
    return a / b


def _ftoi(a: float) -> int:
    if math.isnan(a) or math.isinf(a):
        return 0
    return wrap_i64(int(a))


_ALU2: dict[Op, Callable[[int, int], int]] = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: a << (b % 64),
    Op.SHR: lambda a, b: a >> (b % 64),
    Op.SLT: lambda a, b: 1 if a < b else 0,
    Op.MUL: lambda a, b: a * b,
    Op.DIV: lambda a, b: 0 if b == 0 else int(a / b),
    Op.REM: lambda a, b: a if b == 0 else a - int(a / b) * b,
}

_ALUI: dict[Op, Callable[[int, int], int]] = {
    Op.ADDI: lambda a, i: a + i,
    Op.SUBI: lambda a, i: a - i,
    Op.ANDI: lambda a, i: a & i,
    Op.ORI: lambda a, i: a | i,
    Op.XORI: lambda a, i: a ^ i,
    Op.SHLI: lambda a, i: a << (i % 64),
    Op.SHRI: lambda a, i: a >> (i % 64),
    Op.SLTI: lambda a, i: 1 if a < i else 0,
}

_FPU2: dict[Op, Callable[[float, float], float]] = {
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FMIN: min,
    Op.FMAX: max,
    Op.FDIV: _fdiv,
}

_FCMP: dict[Op, Callable[[float, float], int]] = {
    Op.FEQ: lambda a, b: 1 if a == b else 0,
    Op.FLT: lambda a, b: 1 if a < b else 0,
    Op.FLE: lambda a, b: 1 if a <= b else 0,
}

_BRANCH: dict[Op, Callable[[list[int]], bool]] = {
    Op.BEQ: lambda v: v[0] == v[1],
    Op.BNE: lambda v: v[0] != v[1],
    Op.BLT: lambda v: v[0] < v[1],
    Op.BGE: lambda v: v[0] >= v[1],
    Op.BEQZ: lambda v: v[0] == 0,
    Op.BNEZ: lambda v: v[0] != 0,
}


class ProgramError(RuntimeError):
    """Raised when execution escapes the program or exceeds the budget."""


class FunctionalExecutor:
    """Architectural interpreter producing the dynamic instruction stream."""

    def __init__(
        self,
        program: Program,
        fault_model: Optional[FirstTouchFaults] = None,
    ) -> None:
        self.program = program
        self.state = ArchState(mem=SparseMemory(program.data))
        #: decides which accesses fault; None means none do
        self.fault_model = fault_model
        self.pc = program.entry
        self.seq = 0
        self.halted = False

    # -------------------------------------------------------------- stepping
    def step(self) -> Optional[DynInst]:
        """Execute one instruction; returns its DynInst or None when halted."""
        if self.halted:
            return None
        if not 0 <= self.pc < len(self.program):
            raise ProgramError(f"pc out of range: {self.pc}")
        static = self.program.insts[self.pc]
        info = static.info
        state = self.state

        src_values = tuple(state.read(s) for s in static.srcs)
        dyn = DynInst(
            seq=self.seq,
            pc=self.pc,
            op=static.op,
            dest=static.dest,
            srcs=static.srcs,
            imm=static.imm,
            src_values=src_values,
        )
        self.seq += 1
        next_pc = self.pc + 1
        op = static.op

        if op in _ALU2:
            dyn.result = wrap_i64(_ALU2[op](src_values[0], src_values[1]))
        elif op in _ALUI:
            dyn.result = wrap_i64(_ALUI[op](src_values[0], static.imm))
        elif op is Op.MOV:
            dyn.result = src_values[0]
        elif op is Op.MOVI:
            dyn.result = wrap_i64(int(static.imm))
        elif op in _FPU2:
            dyn.result = _FPU2[op](src_values[0], src_values[1])
        elif op is Op.FABS:
            dyn.result = abs(src_values[0])
        elif op is Op.FNEG:
            dyn.result = -src_values[0]
        elif op is Op.FMOV:
            dyn.result = src_values[0]
        elif op is Op.FLI:
            dyn.result = float(static.imm)
        elif op is Op.FMADD:
            dyn.result = src_values[0] * src_values[1] + src_values[2]
        elif op is Op.CSEL:
            dyn.result = src_values[1] if src_values[0] != 0 else src_values[2]
        elif op is Op.FSQRT:
            dyn.result = math.sqrt(src_values[0]) if src_values[0] >= 0 else 0.0
        elif op is Op.FCVT:
            dyn.result = float(src_values[0])
        elif op is Op.FTOI:
            dyn.result = _ftoi(src_values[0])
        elif op in _FCMP:
            dyn.result = _FCMP[op](src_values[0], src_values[1])
        elif info.is_load:
            addr = wrap_i64(src_values[0] + static.imm)
            dyn.mem_addr = addr
            if self.fault_model is not None:
                dyn.faults = self.fault_model.should_fault(addr)
            value = state.mem.load(addr)
            dyn.result = value if op is Op.FLD else wrap_i64(int(value))
        elif info.is_store:
            addr = wrap_i64(src_values[1] + static.imm)
            dyn.mem_addr = addr
            dyn.store_value = src_values[0]
            if self.fault_model is not None:
                dyn.faults = self.fault_model.should_fault(addr)
            state.mem.store(addr, src_values[0])
        elif info.is_branch:
            dyn.target = static.target
            if info.is_cond:
                dyn.taken = _BRANCH[op](list(src_values))
                if dyn.taken:
                    next_pc = static.target
            elif op is Op.JMP:
                dyn.taken = True
                next_pc = static.target
            elif op is Op.JAL:
                dyn.taken = True
                dyn.result = self.pc + 1
                next_pc = static.target
            elif op is Op.JALR:
                dyn.taken = True
                next_pc = int(src_values[0])
                dyn.target = next_pc
        elif op is Op.TRAP:
            dyn.faults = True  # precise trap; architecturally a no-op once serviced
        elif op is Op.HALT:
            self.halted = True
        elif op is Op.NOP:
            pass
        else:  # pragma: no cover - exhaustive dispatch
            raise ProgramError(f"unimplemented op {op}")

        if dyn.dest is not None and dyn.result is not None:
            state.write(dyn.dest, dyn.result)

        dyn.next_pc = next_pc
        self.pc = next_pc
        return dyn

    def run(self, max_insts: int = 1_000_000) -> Iterator[DynInst]:
        """Yield dynamic instructions until HALT or the budget is exhausted."""
        for _ in range(max_insts):
            dyn = self.step()
            if dyn is None:
                return
            yield dyn
            if dyn.op is Op.HALT:
                return
        raise ProgramError(f"instruction budget exceeded ({max_insts})")


def run_to_completion(program: Program,
                      max_insts: int = 1_000_000) -> ArchState:
    """Convenience: run a program architecturally and return the final state."""
    executor = FunctionalExecutor(program)
    for _ in executor.run(max_insts):
        pass
    return executor.state

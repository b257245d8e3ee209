"""Opcode definitions and static metadata.

Each opcode carries the metadata the rest of the system needs: which
functional-unit class executes it, the register classes of its destination
and sources, and whether it is a load / store / branch / call / return /
trap.  Execution latencies are *not* defined here — they belong to the
machine configuration (:mod:`repro.pipeline.config`), keyed by the
functional-unit class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.isa.registers import RegClass

INT = RegClass.INT
FP = RegClass.FP


class Op(enum.Enum):
    """All opcodes of the toy ISA."""

    # integer ALU
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    SLT = "slt"
    MOV = "mov"
    MOVI = "movi"
    ADDI = "addi"
    SUBI = "subi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SHLI = "shli"
    SHRI = "shri"
    SLTI = "slti"
    NOP = "nop"
    # integer multiply / divide
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    CSEL = "csel"
    # floating point
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FMIN = "fmin"
    FMAX = "fmax"
    FABS = "fabs"
    FNEG = "fneg"
    FMOV = "fmov"
    FLI = "fli"
    FMADD = "fmadd"
    FDIV = "fdiv"
    FSQRT = "fsqrt"
    FCVT = "fcvt"  # int -> fp
    FTOI = "ftoi"  # fp -> int (truncate)
    FEQ = "feq"
    FLT = "flt"
    FLE = "fle"
    # memory
    LD = "ld"
    ST = "st"
    FLD = "fld"
    FST = "fst"
    # control flow
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BEQZ = "beqz"
    BNEZ = "bnez"
    JMP = "jmp"
    JAL = "jal"
    JALR = "jalr"
    # system
    TRAP = "trap"
    HALT = "halt"


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    op: Op
    fu: str  # 'alu' | 'mul' | 'div' | 'fpu' | 'fpdiv' | 'mem' | 'branch'
    dest: Optional[RegClass] = None
    srcs: tuple[RegClass, ...] = ()
    has_imm: bool = False
    has_fimm: bool = False
    has_label: bool = False
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_cond: bool = False
    is_call: bool = False
    is_return: bool = False
    is_trap: bool = False
    is_halt: bool = False
    asm_fmt: str = ""  # parse shape, see assembler

    @property
    def is_mem(self) -> bool:
        return self.is_load or self.is_store


def _info(op: Op, fu: str, **kw) -> tuple[Op, OpInfo]:
    return op, OpInfo(op=op, fu=fu, **kw)


OPCODES: dict[Op, OpInfo] = dict(
    [
        # ---- integer ALU: d, s, s --------------------------------------
        _info(Op.ADD, "alu", dest=INT, srcs=(INT, INT), asm_fmt="d,s,s"),
        _info(Op.SUB, "alu", dest=INT, srcs=(INT, INT), asm_fmt="d,s,s"),
        _info(Op.AND, "alu", dest=INT, srcs=(INT, INT), asm_fmt="d,s,s"),
        _info(Op.OR, "alu", dest=INT, srcs=(INT, INT), asm_fmt="d,s,s"),
        _info(Op.XOR, "alu", dest=INT, srcs=(INT, INT), asm_fmt="d,s,s"),
        _info(Op.SHL, "alu", dest=INT, srcs=(INT, INT), asm_fmt="d,s,s"),
        _info(Op.SHR, "alu", dest=INT, srcs=(INT, INT), asm_fmt="d,s,s"),
        _info(Op.SLT, "alu", dest=INT, srcs=(INT, INT), asm_fmt="d,s,s"),
        _info(Op.MOV, "alu", dest=INT, srcs=(INT,), asm_fmt="d,s"),
        _info(Op.MOVI, "alu", dest=INT, has_imm=True, asm_fmt="d,i"),
        # ---- integer ALU with immediate: d, s, imm ----------------------
        _info(Op.ADDI, "alu", dest=INT, srcs=(INT,), has_imm=True, asm_fmt="d,s,i"),
        _info(Op.SUBI, "alu", dest=INT, srcs=(INT,), has_imm=True, asm_fmt="d,s,i"),
        _info(Op.ANDI, "alu", dest=INT, srcs=(INT,), has_imm=True, asm_fmt="d,s,i"),
        _info(Op.ORI, "alu", dest=INT, srcs=(INT,), has_imm=True, asm_fmt="d,s,i"),
        _info(Op.XORI, "alu", dest=INT, srcs=(INT,), has_imm=True, asm_fmt="d,s,i"),
        _info(Op.SHLI, "alu", dest=INT, srcs=(INT,), has_imm=True, asm_fmt="d,s,i"),
        _info(Op.SHRI, "alu", dest=INT, srcs=(INT,), has_imm=True, asm_fmt="d,s,i"),
        _info(Op.SLTI, "alu", dest=INT, srcs=(INT,), has_imm=True, asm_fmt="d,s,i"),
        _info(Op.NOP, "alu", asm_fmt=""),
        # ---- integer multiply / divide ----------------------------------
        _info(Op.MUL, "mul", dest=INT, srcs=(INT, INT), asm_fmt="d,s,s"),
        _info(Op.DIV, "div", dest=INT, srcs=(INT, INT), asm_fmt="d,s,s"),
        _info(Op.REM, "div", dest=INT, srcs=(INT, INT), asm_fmt="d,s,s"),
        # conditional select: dest = src2 if src1 != 0 else src3 (branchless)
        _info(Op.CSEL, "alu", dest=INT, srcs=(INT, INT, INT), asm_fmt="d,s,s,s"),
        # ---- floating point ---------------------------------------------
        _info(Op.FADD, "fpu", dest=FP, srcs=(FP, FP), asm_fmt="d,s,s"),
        _info(Op.FSUB, "fpu", dest=FP, srcs=(FP, FP), asm_fmt="d,s,s"),
        _info(Op.FMUL, "fpu", dest=FP, srcs=(FP, FP), asm_fmt="d,s,s"),
        _info(Op.FMIN, "fpu", dest=FP, srcs=(FP, FP), asm_fmt="d,s,s"),
        _info(Op.FMAX, "fpu", dest=FP, srcs=(FP, FP), asm_fmt="d,s,s"),
        _info(Op.FABS, "fpu", dest=FP, srcs=(FP,), asm_fmt="d,s"),
        _info(Op.FNEG, "fpu", dest=FP, srcs=(FP,), asm_fmt="d,s"),
        _info(Op.FMOV, "fpu", dest=FP, srcs=(FP,), asm_fmt="d,s"),
        _info(Op.FLI, "fpu", dest=FP, has_fimm=True, asm_fmt="d,i"),
        _info(Op.FMADD, "fpu", dest=FP, srcs=(FP, FP, FP), asm_fmt="d,s,s,s"),
        _info(Op.FDIV, "fpdiv", dest=FP, srcs=(FP, FP), asm_fmt="d,s,s"),
        _info(Op.FSQRT, "fpdiv", dest=FP, srcs=(FP,), asm_fmt="d,s"),
        _info(Op.FCVT, "fpu", dest=FP, srcs=(INT,), asm_fmt="d,s"),
        _info(Op.FTOI, "fpu", dest=INT, srcs=(FP,), asm_fmt="d,s"),
        _info(Op.FEQ, "fpu", dest=INT, srcs=(FP, FP), asm_fmt="d,s,s"),
        _info(Op.FLT, "fpu", dest=INT, srcs=(FP, FP), asm_fmt="d,s,s"),
        _info(Op.FLE, "fpu", dest=INT, srcs=(FP, FP), asm_fmt="d,s,s"),
        # ---- memory -------------------------------------------------------
        _info(Op.LD, "mem", dest=INT, srcs=(INT,), has_imm=True, is_load=True, asm_fmt="d,a"),
        _info(Op.ST, "mem", srcs=(INT, INT), has_imm=True, is_store=True, asm_fmt="v,a"),
        _info(Op.FLD, "mem", dest=FP, srcs=(INT,), has_imm=True, is_load=True, asm_fmt="d,a"),
        _info(Op.FST, "mem", srcs=(FP, INT), has_imm=True, is_store=True, asm_fmt="v,a"),
        # ---- control flow --------------------------------------------------
        _info(Op.BEQ, "branch", srcs=(INT, INT), has_label=True, is_branch=True, is_cond=True, asm_fmt="s,s,L"),
        _info(Op.BNE, "branch", srcs=(INT, INT), has_label=True, is_branch=True, is_cond=True, asm_fmt="s,s,L"),
        _info(Op.BLT, "branch", srcs=(INT, INT), has_label=True, is_branch=True, is_cond=True, asm_fmt="s,s,L"),
        _info(Op.BGE, "branch", srcs=(INT, INT), has_label=True, is_branch=True, is_cond=True, asm_fmt="s,s,L"),
        _info(Op.BEQZ, "branch", srcs=(INT,), has_label=True, is_branch=True, is_cond=True, asm_fmt="s,L"),
        _info(Op.BNEZ, "branch", srcs=(INT,), has_label=True, is_branch=True, is_cond=True, asm_fmt="s,L"),
        _info(Op.JMP, "branch", has_label=True, is_branch=True, asm_fmt="L"),
        _info(Op.JAL, "branch", dest=INT, has_label=True, is_branch=True, is_call=True, asm_fmt="d,L"),
        _info(Op.JALR, "branch", srcs=(INT,), is_branch=True, is_return=True, asm_fmt="s"),
        # ---- system ----------------------------------------------------------
        _info(Op.TRAP, "alu", is_trap=True, asm_fmt=""),
        _info(Op.HALT, "alu", is_halt=True, asm_fmt=""),
    ]
)

#: Opcode lookup by mnemonic.
MNEMONICS: dict[str, Op] = {op.value: op for op in Op}

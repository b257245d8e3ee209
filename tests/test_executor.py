"""Unit tests for the functional (in-order reference) executor."""

import math

import pytest

from repro.isa import assemble, FirstTouchFaults, FunctionalExecutor
from repro.isa.executor import run_to_completion, wrap_i64, ProgramError
from repro.isa.opcodes import Op


def run(text, max_insts=100_000):
    return run_to_completion(assemble(text), max_insts)


def test_wrap_i64():
    assert wrap_i64(2**63) == -(2**63)
    assert wrap_i64(-(2**63) - 1) == 2**63 - 1
    assert wrap_i64(5) == 5


def test_int_arithmetic():
    state = run(
        """
        main: movi x1, 7
              movi x2, 3
              add  x3, x1, x2
              sub  x4, x1, x2
              mul  x5, x1, x2
              div  x6, x1, x2
              rem  x7, x1, x2
              and  x8, x1, x2
              or   x9, x1, x2
              xor  x10, x1, x2
              shl  x11, x1, x2
              shr  x12, x1, x2
              slt  x13, x2, x1
              halt
        """
    )
    r = state.int_regs
    assert r[3] == 10 and r[4] == 4 and r[5] == 21
    assert r[6] == 2 and r[7] == 1
    assert r[8] == 3 and r[9] == 7 and r[10] == 4
    assert r[11] == 56 and r[12] == 0 and r[13] == 1


def test_division_truncates_toward_zero_and_div_by_zero():
    state = run(
        """
        main: movi x1, -7
              movi x2, 2
              div  x3, x1, x2
              rem  x4, x1, x2
              movi x5, 0
              div  x6, x1, x5
              rem  x7, x1, x5
              halt
        """
    )
    r = state.int_regs
    assert r[3] == -3 and r[4] == -1
    assert r[6] == 0 and r[7] == -7


def test_int_overflow_wraps():
    state = run(
        """
        main: movi x1, 1
              movi x2, 63
              shl  x3, x1, x2
              subi x4, x3, 1
              add  x5, x3, x3
              halt
        """
    )
    assert state.int_regs[3] == -(2**63)
    assert state.int_regs[4] == 2**63 - 1
    assert state.int_regs[5] == 0


def test_fp_arithmetic():
    state = run(
        """
        main: fli  f1, 2.0
              fli  f2, 0.5
              fadd f3, f1, f2
              fsub f4, f1, f2
              fmul f5, f1, f2
              fdiv f6, f1, f2
              fsqrt f7, f1
              fneg f8, f1
              fabs f9, f8
              fmin f10, f1, f2
              fmax f11, f1, f2
              halt
        """
    )
    f = state.fp_regs
    assert f[3] == 2.5 and f[4] == 1.5 and f[5] == 1.0 and f[6] == 4.0
    assert f[7] == pytest.approx(math.sqrt(2.0))
    assert f[8] == -2.0 and f[9] == 2.0
    assert f[10] == 0.5 and f[11] == 2.0


def test_fp_int_conversions_and_compares():
    state = run(
        """
        main: movi x1, 3
              fcvt f1, x1
              fli  f2, 2.75
              ftoi x2, f2
              feq  x3, f1, f2
              flt  x4, f2, f1
              fle  x5, f1, f1
              halt
        """
    )
    assert state.fp_regs[1] == 3.0
    assert state.int_regs[2] == 2
    assert state.int_regs[3] == 0
    assert state.int_regs[4] == 1
    assert state.int_regs[5] == 1


def test_memory_and_data_section():
    state = run(
        """
        .data
        arr: .word 10 20 30 40
        out: .zero 1
        .text
        main: movi x1, arr
              movi x2, 0
              movi x3, 4
        loop: ld   x4, 0(x1)
              add  x2, x2, x4
              addi x1, x1, 8
              subi x3, x3, 1
              bnez x3, loop
              movi x5, out
              st   x2, 0(x5)
              halt
        """
    )
    assert state.int_regs[2] == 100
    out_addr = 0x1_0000 + 4 * 8
    assert state.mem.load(out_addr) == 100


def test_fp_memory():
    state = run(
        """
        .data
        v: .word 1.25 3.5
        .text
        main: movi x1, v
              fld  f1, 0(x1)
              fld  f2, 8(x1)
              fadd f3, f1, f2
              fst  f3, 16(x1)
              halt
        """
    )
    assert state.mem.load(0x1_0000 + 16) == 4.75


def test_call_return():
    state = run(
        """
        main:  movi x1, 5
               call double
               call double
               halt
        double: add x1, x1, x1
               ret
        """
    )
    assert state.int_regs[1] == 20


def test_branch_variants():
    state = run(
        """
        main: movi x1, 2
              movi x2, 2
              movi x10, 0
              beq  x1, x2, a
              movi x10, 99
        a:    bne  x1, x2, b
              addi x10, x10, 1
        b:    blt  x1, x2, c
              addi x10, x10, 2
        c:    bge  x1, x2, d
              addi x10, x10, 4
        d:    halt
        """
    )
    # beq taken, bne not, blt not, bge taken => x10 = 0 + 1 + 2
    assert state.int_regs[10] == 3


def test_trap_sets_fault_flag():
    executor = FunctionalExecutor(assemble("main: trap\nhalt"))
    insts = list(executor.run())
    assert insts[0].op is Op.TRAP and insts[0].faults
    assert insts[1].op is Op.HALT


def test_budget_exceeded_raises():
    with pytest.raises(ProgramError):
        run("main: jmp main", max_insts=100)


def test_first_touch_faults():
    fm = FirstTouchFaults()
    program = assemble(
        """
        .data
        a: .word 1
        .text
        main: movi x1, a
              ld   x2, 0(x1)
              ld   x3, 0(x1)
              halt
        """
    )
    executor = FunctionalExecutor(program, fault_model=fm)
    insts = list(executor.run())
    loads = [i for i in insts if i.op is Op.LD]
    assert loads[0].faults
    # the page counts as touched from its first access on, however far
    # the executor runs ahead of the pipeline that takes the fault
    assert not loads[1].faults
    assert fm.fault_count == 1


def test_dyninst_records_values():
    executor = FunctionalExecutor(assemble("main: movi x1, 6\naddi x2, x1, 1\nhalt"))
    insts = list(executor.run())
    assert insts[0].result == 6
    assert insts[1].src_values == (6,)
    assert insts[1].result == 7


def test_jal_records_return_address():
    executor = FunctionalExecutor(
        assemble("main: call f\nhalt\nf: ret")
    )
    insts = list(executor.run())
    assert insts[0].result == 1  # return address = instruction index 1
    assert insts[1].op is Op.JALR and insts[1].next_pc == 1

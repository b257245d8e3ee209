"""Tests for the 3-source instructions (fmadd, csel)."""

import pytest

from repro import MachineConfig, assemble, simulate
from repro.isa.executor import run_to_completion

from tests.util import program_processor


def test_fmadd_semantics():
    state = run_to_completion(assemble(
        """
        main: fli f1, 2.5
              fli f2, 4.0
              fli f3, 1.0
              fmadd f4, f1, f2, f3
              fmadd f4, f1, f2, f4   # accumulate: 10+1, +10 again
              halt
        """
    ))
    assert state.fp_regs[4] == pytest.approx(21.0)


def test_csel_semantics():
    state = run_to_completion(assemble(
        """
        main: movi x2, 7
              movi x3, 9
              movi x1, 0
              csel x4, x1, x2, x3
              movi x1, -1
              csel x5, x1, x2, x3
              halt
        """
    ))
    assert state.int_regs[4] == 9
    assert state.int_regs[5] == 7


DOT_FMA = """
.data
a: .word 1.0 2.0 3.0 4.0 5.0 6.0
b: .word 0.5 1.5 2.5 3.5 4.5 5.5
.text
main: movi x1, a
      movi x2, b
      movi x3, 6
      fli  f1, 0.0
loop: fld  f2, 0(x1)
      fld  f3, 0(x2)
      fmadd f1, f2, f3, f1      # 3-source accumulation chain
      addi x1, x1, 8
      addi x2, x2, 8
      subi x3, x3, 1
      bnez x3, loop
      halt
"""


@pytest.mark.parametrize("scheme", ["conventional", "sharing"])
def test_fma_dot_product_through_pipeline(scheme):
    program = assemble(DOT_FMA)
    reference = run_to_completion(program)
    assert reference.fp_regs[1] == pytest.approx(
        sum(a * b for a, b in zip([1, 2, 3, 4, 5, 6],
                                  [0.5, 1.5, 2.5, 3.5, 4.5, 5.5])))
    config = MachineConfig(scheme=scheme, int_regs=48, fp_regs=48)
    processor = program_processor(config, program)
    processor.run()
    _, fp_regs = processor.architectural_state()
    assert fp_regs == reference.fp_regs


def test_fma_accumulator_is_guaranteed_reuse_chain():
    """fmadd f1, ., ., f1 redefines its own third source: once the type
    predictor learns to give the accumulator shadow cells, every iteration
    is a guaranteed reuse under the sharing scheme."""
    text = """
    .data
    a: .word 1.0 2.0 3.0 4.0 5.0 6.0
    b: .word 0.5 1.5 2.5 3.5 4.5 5.5
    .text
    main: movi x9, 20            # outer repetitions: predictor training
    outer: movi x1, a
          movi x2, b
          movi x3, 6
          fli  f1, 0.0
    loop: fld  f2, 0(x1)
          fld  f3, 0(x2)
          fmadd f1, f2, f3, f1
          addi x1, x1, 8
          addi x2, x2, 8
          subi x3, x3, 1
          bnez x3, loop
          subi x9, x9, 1
          bnez x9, outer
          halt
    """
    config = MachineConfig(scheme="sharing", int_regs=64, fp_regs=64)
    stats = simulate(config, assemble(text))
    assert stats.renamer_stats.reuses_guaranteed > 30


def test_csel_through_pipeline_branchless():
    text = """
    main: movi x9, 60
          movi x2, 1
          movi x3, 2
          movi x10, 0
    loop: andi x4, x9, 1
          csel x5, x4, x2, x3     # branchless pick
          add  x10, x10, x5
          subi x9, x9, 1
          bnez x9, loop
          halt
    """
    program = assemble(text)
    reference = run_to_completion(program)
    for scheme in ("conventional", "sharing"):
        config = MachineConfig(scheme=scheme, int_regs=48, fp_regs=48)
        processor = program_processor(config, program)
        stats = processor.run()
        int_regs, _ = processor.architectural_state()
        assert int_regs == reference.int_regs
    # 60 iterations alternate odd/even: sum = 30*1 + 30*2
    assert reference.int_regs[10] == 90


def test_three_source_rename_tags():
    """All three sources get tags and wake correctly."""
    config = MachineConfig(scheme="sharing", int_regs=48, fp_regs=48)
    stats = simulate(config, assemble(DOT_FMA))
    assert stats.committed > 10  # verification at issue covers the rest

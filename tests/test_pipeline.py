"""Integration tests: full programs through the out-of-order pipeline.

Every test runs with operand verification enabled, so any renaming bug
that corrupts dataflow trips a VerificationError rather than silently
producing wrong timing.  Architectural results are checked against the
in-order reference executor.
"""

import pytest

from repro import MachineConfig, assemble, simulate
from repro.isa import FirstTouchFaults, FunctionalExecutor
from repro.isa.executor import run_to_completion
from tests.util import program_processor

SCHEMES = ["conventional", "sharing"]


def run_program(text, scheme, fault_model=None, **cfg_kw):
    config = MachineConfig(scheme=scheme, **cfg_kw)
    processor = program_processor(config, assemble(text), fault_model)
    stats = processor.run()
    return processor, stats


SUM_LOOP = """
main: movi x1, 200
      movi x2, 0
loop: add  x2, x2, x1
      subi x1, x1, 1
      bnez x1, loop
      halt
"""

MIXED = """
.data
arr: .word 3 1 4 1 5 9 2 6
out: .zero 8
.text
main: movi x1, arr
      movi x2, out
      movi x3, 8
      fli  f1, 0.0
loop: ld   x4, 0(x1)
      mul  x5, x4, x4
      st   x5, 0(x2)
      fcvt f2, x4
      fmul f3, f2, f2
      fadd f1, f1, f3
      addi x1, x1, 8
      addi x2, x2, 8
      subi x3, x3, 1
      bnez x3, loop
      halt
"""

CALLS = """
main:  movi x1, 0
       movi x2, 6
loop:  call fib_step
       subi x2, x2, 1
       bnez x2, loop
       halt
fib_step:
       addi x1, x1, 2
       mul  x1, x1, x1
       rem  x1, x1, x2
       ret
"""


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sum_loop_matches_reference(scheme):
    processor, stats = run_program(SUM_LOOP, scheme)
    reference = run_to_completion(assemble(SUM_LOOP))
    int_regs, _ = processor.architectural_state()
    assert int_regs == reference.int_regs
    assert stats.committed == len(list(FunctionalExecutor(assemble(SUM_LOOP)).run()))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_mixed_int_fp_memory_matches_reference(scheme):
    processor, stats = run_program(MIXED, scheme)
    reference = run_to_completion(assemble(MIXED))
    int_regs, fp_regs = processor.architectural_state()
    assert int_regs == reference.int_regs
    assert fp_regs == reference.fp_regs
    assert stats.loads == 8 and stats.stores == 8


@pytest.mark.parametrize("scheme", SCHEMES)
def test_calls_and_returns(scheme):
    processor, _stats = run_program(CALLS, scheme)
    reference = run_to_completion(assemble(CALLS))
    int_regs, _ = processor.architectural_state()
    assert int_regs == reference.int_regs


@pytest.mark.parametrize("scheme", SCHEMES)
def test_small_register_file_still_correct(scheme):
    processor, stats = run_program(MIXED, scheme, int_regs=48, fp_regs=48)
    reference = run_to_completion(assemble(MIXED))
    int_regs, fp_regs = processor.architectural_state()
    assert int_regs == reference.int_regs
    assert fp_regs == reference.fp_regs


def test_sharing_reuses_registers_in_pipeline():
    _, stats = run_program(MIXED, "sharing", int_regs=48, fp_regs=48)
    assert stats.renamer_stats.reuses > 0


def test_ipc_sane():
    _, stats = run_program(SUM_LOOP, "conventional")
    assert 0.05 < stats.ipc <= 3.0


def test_branch_predictor_learns_loop():
    _, stats = run_program(SUM_LOOP, "conventional")
    assert stats.branch_stats.accuracy > 0.8


@pytest.mark.parametrize("scheme", SCHEMES)
def test_store_load_forwarding_correct(scheme):
    text = """
    .data
    buf: .zero 2
    .text
    main: movi x1, buf
          movi x2, 123
          st   x2, 0(x1)
          ld   x3, 0(x1)
          addi x4, x3, 1
          halt
    """
    processor, stats = run_program(text, scheme)
    int_regs, _ = processor.architectural_state()
    assert int_regs[3] == 123 and int_regs[4] == 124


@pytest.mark.parametrize("scheme", SCHEMES)
def test_precise_exceptions_page_faults(scheme):
    fault_model = FirstTouchFaults()
    processor, stats = run_program(MIXED, scheme, fault_model=fault_model)
    assert stats.exceptions >= 1
    reference = run_to_completion(assemble(MIXED))
    int_regs, fp_regs = processor.architectural_state()
    assert int_regs == reference.int_regs
    assert fp_regs == reference.fp_regs


@pytest.mark.parametrize("scheme", SCHEMES)
def test_precise_exceptions_trap(scheme):
    text = """
    main: movi x1, 5
          addi x2, x1, 1
          trap
          addi x3, x2, 1
          halt
    """
    processor, stats = run_program(text, scheme)
    assert stats.exceptions == 1
    int_regs, _ = processor.architectural_state()
    assert int_regs[1] == 5 and int_regs[2] == 6 and int_regs[3] == 7


def test_exception_with_overwritten_shared_register():
    """The paper's Section IV-B scenario: an older instruction faults after
    a younger instruction has overwritten the shared physical register; the
    shadow cell must restore the old value."""
    text = """
    .data
    v: .word 17
    .text
    main: movi x1, v
          movi x2, 1
          ld   x3, 0(x1)     # faults (first touch)
          add  x2, x2, x2    # chain reusing x2's register
          add  x2, x2, x2
          add  x2, x2, x2
          add  x4, x3, x2
          halt
    """
    fault_model = FirstTouchFaults()
    processor, stats = run_program(text, "sharing", fault_model=fault_model,
                                   int_regs=48, fp_regs=48)
    assert stats.exceptions >= 1
    int_regs, _ = processor.architectural_state()
    assert int_regs[3] == 17
    assert int_regs[2] == 8
    assert int_regs[4] == 25


def test_exception_recovery_charges_cycles_for_sharing():
    fault_model = FirstTouchFaults()
    _, stats = run_program(MIXED, "sharing", fault_model=fault_model)
    assert stats.recovery_cycles > 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_repeated_faults_all_recovered(scheme):
    # the loads and the stores touch two pages: each page faults once, on
    # its first access in program order, and each fault recovers precisely
    two_pages = MIXED.replace("out:", "pad: .zero 512\nout:")
    fault_model = FirstTouchFaults()
    processor, stats = run_program(two_pages, scheme, fault_model=fault_model)
    assert stats.exceptions == fault_model.fault_count == 2
    reference = run_to_completion(assemble(two_pages))
    int_regs, _fp = processor.architectural_state()
    assert int_regs == reference.int_regs


def test_repair_uops_flow_through_pipeline():
    """Force single-use mispredictions and check end-to-end correctness."""
    # x1's value is consumed twice with the second use far later: the first
    # consumer speculatively reuses the register, the second one triggers
    # the repair micro-ops.
    text = """
    main: movi x5, 20
          movi x9, 0
    loop: addi x1, x9, 3
          add  x2, x1, x5
          add  x3, x1, x5
          add  x9, x2, x3
          rem  x9, x9, x5
          subi x5, x5, 1
          bnez x5, loop
          halt
    """
    processor, stats = run_program(text, "sharing", int_banks=(16, 8, 8, 8),
                                   fp_banks=(33, 4, 4, 4))
    reference = run_to_completion(assemble(text))
    int_regs, _ = processor.architectural_state()
    assert int_regs == reference.int_regs
    assert stats.renamer_stats.repairs > 0
    assert stats.committed_uops >= stats.renamer_stats.repairs

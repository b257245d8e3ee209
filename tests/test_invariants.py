"""Run simulations with continuous cross-structure invariant checking."""

import pytest

from repro import MachineConfig, assemble
from repro.frontend.fetch import IterSource
from repro.isa import FirstTouchFaults
from repro.isa.opcodes import Op
from repro.pipeline.debug import (
    InvariantViolation,
    check_conventional_renamer,
    check_invariants,
)
from repro.pipeline.processor import Processor
from repro.workloads import BENCHMARKS, SyntheticWorkload

from tests.util import make_inst, never_ready, program_processor


def run_checked(workload_or_text, scheme, fault_model=None, **cfg):
    config = MachineConfig(scheme=scheme, int_regs=48, fp_regs=48, **cfg)
    hooks = {"on_cycle": check_invariants, "on_cycle_interval": 16}
    if isinstance(workload_or_text, str):
        processor = program_processor(config, assemble(workload_or_text),
                                      fault_model, **hooks)
    else:
        processor = Processor(config, IterSource(iter(workload_or_text)),
                              **hooks)
    return processor.run()


PROGRAM = """
.data
arr: .word 9 8 7 6 5 4 3 2
.text
main: movi x1, arr
      movi x2, 0
      movi x3, 8
loop: ld   x4, 0(x1)
      mul  x5, x4, x4
      add  x2, x2, x5
      addi x1, x1, 8
      subi x3, x3, 1
      bnez x3, loop
      halt
"""


@pytest.mark.parametrize("scheme", ["conventional", "sharing", "hinted",
                                    "early"])
def test_invariants_hold_through_program(scheme):
    stats = run_checked(PROGRAM, scheme)
    assert stats.committed > 0


@pytest.mark.parametrize("scheme", ["conventional", "sharing"])
def test_invariants_hold_through_exceptions(scheme):
    stats = run_checked(PROGRAM, scheme, fault_model=FirstTouchFaults())
    assert stats.exceptions >= 1


def test_invariants_hold_with_wrong_path():
    stats = run_checked(
        list(SyntheticWorkload(BENCHMARKS["gobmk"], total_insts=2500)),
        "sharing", model_wrong_path=True)
    assert stats.wrong_path_squashed > 0


def test_invariants_hold_under_pressure():
    stats = run_checked(
        list(SyntheticWorkload(BENCHMARKS["bwaves"], total_insts=2500)),
        "sharing", int_banks=(33, 2, 2, 2), fp_banks=(33, 2, 2, 2))
    assert stats.committed == 2500


def test_invariant_checker_detects_corruption():
    """Deliberately corrupt the free list and check the checker fires."""
    config = MachineConfig(scheme="sharing", int_regs=48, fp_regs=48)
    processor = program_processor(config, assemble(PROGRAM))
    # corrupt: force a mapped register onto its free list
    from repro.isa.registers import RegClass

    domain = processor.renamer.domains[RegClass.INT]
    mapped_phys = domain.map.get(1)[0]
    domain.free.release(mapped_phys)
    with pytest.raises(InvariantViolation):
        check_invariants(processor)


def test_invariant_checker_detects_early_release_corruption():
    config = MachineConfig(scheme="early", int_regs=48, fp_regs=48)
    processor = program_processor(config, assemble(PROGRAM))
    from repro.isa.registers import RegClass

    domain = processor.renamer.domains[RegClass.INT]
    mapped_phys = domain.map.get(1)[0]
    domain.free.append(mapped_phys)
    with pytest.raises(InvariantViolation):
        check_invariants(processor)


def test_invariant_checker_accepts_retirement_map_to_early_released():
    """Early release frees a register the retirement map still names; the
    checker allows it for the early renamer, not for the conventional one
    it subclasses."""
    config = MachineConfig(scheme="early", int_regs=48, fp_regs=48)
    processor = program_processor(config, assemble(PROGRAM))
    from repro.isa.registers import RegClass

    renamer = processor.renamer
    domain = renamer.domains[RegClass.INT]
    committed_phys = domain.retire_map.get(1)[0]
    # redefining x1 releases its produced, never-read initial register
    renamer.rename(make_inst(Op.MOVI, "x1", ()), never_ready)
    assert committed_phys in domain.free
    assert domain.retire_map.get(1)[0] == committed_phys
    check_invariants(processor)
    with pytest.raises(InvariantViolation):
        check_conventional_renamer(renamer)


# ------------------------------------------------------- on_cycle scheduling
def _run_recording_cycles(interval):
    """Run PROGRAM with an on_cycle hook that records its firing cycles."""
    calls = []
    config = MachineConfig(scheme="sharing", int_regs=48, fp_regs=48)
    processor = program_processor(config, assemble(PROGRAM),
                                  on_cycle=lambda p: calls.append(p.cycle),
                                  on_cycle_interval=interval)
    processor.run()
    return calls, processor.cycle


def test_on_cycle_interval_and_final_check():
    """The hook fires on every interval boundary, plus one final
    unconditional call at the end-of-run cycle."""
    calls, final_cycle = _run_recording_cycles(16)
    expected = [c for c in range(16, final_cycle + 1, 16)]
    if final_cycle % 16 != 0:
        expected.append(final_cycle)
    assert calls == expected
    assert calls[-1] == final_cycle


def test_on_cycle_fires_at_halt_even_with_huge_interval():
    """An interval longer than the whole run still yields the final check."""
    calls, final_cycle = _run_recording_cycles(1_000_000)
    assert calls == [final_cycle]

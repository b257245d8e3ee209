"""Tests for asynchronous interrupt delivery (Section IV-B)."""

import pytest

from repro import MachineConfig, assemble
from repro.core.early_release import PreciseStateUnavailable
from repro.frontend.fetch import IterSource
from repro.isa.executor import run_to_completion
from repro.pipeline.processor import Processor
from repro.workloads import BENCHMARKS, SyntheticWorkload

from tests.util import program_processor

PROGRAM = """
.data
arr: .word 2 4 6 8 10 12 14 16
.text
main: movi x1, arr
      movi x2, 0
      movi x3, 8
loop: ld   x4, 0(x1)
      mul  x5, x4, x4
      add  x2, x2, x5
      fcvt f1, x2
      fmul f2, f1, f1
      addi x1, x1, 8
      subi x3, x3, 1
      bnez x3, loop
      halt
"""


def run(scheme, interval, **cfg):
    program = assemble(PROGRAM)
    config = MachineConfig(scheme=scheme, interrupt_interval=interval,
                           int_regs=48, fp_regs=48, **cfg)
    processor = program_processor(config, program)
    stats = processor.run()
    return processor, stats


@pytest.mark.parametrize("scheme", ["conventional", "sharing"])
def test_interrupts_preserve_precise_state(scheme):
    reference = run_to_completion(assemble(PROGRAM))
    processor, stats = run(scheme, interval=40)
    assert stats.interrupts >= 2
    int_regs, fp_regs = processor.architectural_state()
    assert int_regs == reference.int_regs
    assert fp_regs == reference.fp_regs


def test_interrupts_cost_cycles():
    _, without = run("sharing", interval=None)
    _, with_interrupts = run("sharing", interval=40)
    assert with_interrupts.cycles > without.cycles
    assert with_interrupts.recovery_cycles > without.recovery_cycles


def test_interrupt_frequency_scales_cost():
    _, sparse = run("sharing", interval=200)
    _, dense = run("sharing", interval=30)
    assert dense.interrupts > sparse.interrupts
    assert dense.cycles >= sparse.cycles


def test_sharing_recovery_cost_exceeds_baseline():
    """Shadow-cell recovery charges per differing map entry, so the
    sharing scheme's interrupt cost is at least the baseline's."""
    _, conventional = run("conventional", interval=50)
    _, sharing = run("sharing", interval=50)
    if sharing.interrupts == conventional.interrupts:
        assert sharing.recovery_cycles >= conventional.recovery_cycles


def test_early_release_cannot_take_interrupts():
    with pytest.raises(PreciseStateUnavailable):
        run("early", interval=40)


def test_interrupts_on_synthetic_workload():
    workload = SyntheticWorkload(BENCHMARKS["gsm"], total_insts=3000)
    config = MachineConfig(scheme="sharing", interrupt_interval=500,
                           int_regs=64, fp_regs=64)
    processor = Processor(config, IterSource(iter(workload)))
    stats = processor.run()
    assert stats.committed == 3000
    assert stats.interrupts > 0

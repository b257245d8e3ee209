"""Tests for the register-lifetime analysis (Section II motivation)."""

import pytest

from repro import MachineConfig, assemble
from repro.analysis import analyze_lifetimes
from repro.frontend.fetch import IterSource
from repro.isa.executor import FunctionalExecutor
from repro.pipeline.processor import Processor
from repro.workloads import BENCHMARKS, SyntheticWorkload


def traced_run(workload, scheme, **cfg):
    config = MachineConfig(scheme=scheme, **cfg)
    if isinstance(workload, str):
        executor = FunctionalExecutor(assemble(workload))
        source = IterSource(executor.run(100_000))
    else:
        source = IterSource(iter(workload))
    processor = Processor(config, source, keep_trace=True)
    processor.run()
    return processor


PROGRAM = """
main: movi x1, 40
      movi x2, 0
loop: add  x3, x1, x1     # x3's value: read once, released much later
      add  x2, x2, x3
      nop
      nop
      subi x1, x1, 1
      bnez x1, loop
      halt
"""


def test_lifetimes_reconstructed():
    processor = traced_run(PROGRAM, "conventional", int_regs=64, fp_regs=64)
    analysis = analyze_lifetimes(processor.trace)
    assert len(analysis.lifetimes) > 30
    for lt in analysis.lifetimes:
        if lt.released is not None:
            assert lt.released >= lt.allocated
        if lt.last_read is not None and lt.released is not None:
            assert lt.dead_interval >= 0


def test_conventional_has_dead_interval():
    """The paper's motivation: registers stay allocated long after their
    last read under release-on-commit."""
    processor = traced_run(PROGRAM, "conventional", int_regs=64, fp_regs=64)
    analysis = analyze_lifetimes(processor.trace)
    assert analysis.mean_dead_interval > 1.0
    assert analysis.dead_fraction > 0.05


def test_sharing_shrinks_dead_interval():
    workload = list(SyntheticWorkload(BENCHMARKS["bwaves"], total_insts=6000))
    conventional = traced_run(list(workload), "conventional",
                              int_regs=64, fp_regs=64, verify_values=False)
    conv = analyze_lifetimes(conventional.trace)

    workload2 = list(SyntheticWorkload(BENCHMARKS["bwaves"], total_insts=6000))
    sharing = traced_run(workload2, "sharing",
                         int_regs=64, fp_regs=64, verify_values=False)
    shar = analyze_lifetimes(sharing.trace)

    # reused values are released at the consumer's rename, so the average
    # dead interval shrinks under the sharing scheme
    assert shar.mean_dead_interval < conv.mean_dead_interval


def test_unread_values_anchor_at_definition():
    text = """
    main: movi x1, 1     # never read
          movi x1, 2     # redefines: releases the first register
          add  x2, x1, x1
          halt
    """
    processor = traced_run(text, "conventional", int_regs=64, fp_regs=64)
    analysis = analyze_lifetimes(processor.trace)
    assert analysis.lifetimes
    first = analysis.lifetimes[0]
    assert first.last_read is None
    assert first.dead_interval is not None

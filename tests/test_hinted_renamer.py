"""Tests for the compiler-hinted sharing renamer (Jones et al. comparator)."""

import pytest

from repro import MachineConfig
from repro.pipeline.processor import simulate
from repro.workloads import BENCHMARKS, SyntheticWorkload


def run(scheme, name="bwaves", insts=6000, size=64):
    workload = SyntheticWorkload(BENCHMARKS[name], total_insts=insts)
    config = MachineConfig(scheme=scheme, int_regs=size, fp_regs=size)
    return simulate(config, iter(workload))


def test_generator_emits_hints():
    insts = list(SyntheticWorkload(BENCHMARKS["bwaves"], total_insts=3000))
    hinted_src = [d for d in insts if any(d.hint_src_single_use)]
    hinted_dest = [d for d in insts if d.hint_dest_single_use]
    depths = [d.hint_reuse_depth for d in insts if d.hint_reuse_depth > 0]
    assert len(hinted_src) > 100
    assert len(hinted_dest) > 100
    assert depths and max(depths) <= 3


def test_hinted_reuse_in_same_band_as_predicted():
    """Static hints land in the same reuse band as the learned predictors
    (the learned design can even beat them; see the ablation bench)."""
    predicted = run("sharing")
    hinted = run("hinted")
    assert hinted.renamer_stats.reuse_fraction > \
        predicted.renamer_stats.reuse_fraction * 0.6
    assert hinted.renamer_stats.reuse_fraction < \
        predicted.renamer_stats.reuse_fraction * 1.4


def test_hinted_never_repairs():
    """Plan-accurate single-use hints never create stale-version consumers
    (hints are conservative: sources marked single-use really are)."""
    hinted = run("hinted", name="gcc")
    assert hinted.renamer_stats.repairs == 0
    assert hinted.committed_uops == 0


def test_hinted_correctness_verified():
    """Operand verification stays on: hinted reuse is still semantically
    invisible."""
    stats = run("hinted", name="mcf", insts=4000)
    assert stats.committed == 4000


def test_hinted_guaranteed_path_still_works_without_hints():
    """Functional programs carry no hints: only guaranteed reuse remains."""
    from repro import assemble

    program = assemble(
        """
        main: movi x1, 30
              movi x2, 0
        loop: add  x2, x2, x1
              subi x1, x1, 1
              bnez x1, loop
              halt
        """
    )
    config = MachineConfig(scheme="hinted", int_regs=48, fp_regs=48)
    stats = simulate(config, program)
    renamer = stats.renamer_stats
    assert renamer.reuses_predicted == 0
    assert renamer.reuses_guaranteed >= 0  # chains may still reuse via banks


def test_simulate_annotates_program_hints_like_lockstep_run():
    """A Program reaches the pipeline one way: ``simulate`` gives the
    hinted scheme the same lookahead-hinted stream ``lockstep_run`` (the
    ``repro verify`` path) does, so both report the same statistics."""
    from repro.verify import lockstep_run
    from repro.workloads import ALL_KERNELS

    program = ALL_KERNELS["fir"]().program
    config = MachineConfig(scheme="hinted", int_regs=64, fp_regs=64)
    plain = simulate(config, program)
    checked = lockstep_run(config, program)
    assert plain.to_dict() == checked.to_dict()
    assert plain.renamer_stats.reuses > 1000

"""Tests for the early-release comparator (Section VII related work)."""

import pytest

from repro import MachineConfig, assemble, simulate
from repro.core.early_release import EarlyReleaseRenamer, PreciseStateUnavailable
from repro.isa import FirstTouchFaults
from repro.isa.executor import run_to_completion
from repro.isa.opcodes import Op
from repro.isa.registers import RegClass

from tests.util import make_inst, never_ready, program_processor


def test_release_on_last_read():
    renamer = EarlyReleaseRenamer(40, 40)
    producer = make_inst(Op.MOVI, "x1", ())
    consumer = make_inst(Op.ADD, "x2", ("x1", "x1"))
    redefiner = make_inst(Op.MOVI, "x1", ())
    renamer.rename(producer, never_ready)
    renamer.rename(consumer, never_ready)
    renamer.rename(redefiner, never_ready)
    # (renaming released the never-read *initial* registers of x1/x2 early)

    phys = producer.dest_tag
    base = renamer.early_releases
    free_before = renamer.free_registers(RegClass.INT)
    renamer.write(phys, 7)  # produced
    assert renamer.free_registers(RegClass.INT) == free_before  # reads pending
    renamer.on_operand_read(consumer.src_tags[0])
    renamer.on_operand_read(consumer.src_tags[1])
    # produced + redefined + all reads done -> released, before ANY commit
    assert renamer.free_registers(RegClass.INT) == free_before + 1
    assert renamer.early_releases == base + 1


def test_no_release_before_redefinition():
    renamer = EarlyReleaseRenamer(40, 40)
    producer = make_inst(Op.MOVI, "x1", ())
    consumer = make_inst(Op.ADD, "x2", ("x1", "x1"))
    renamer.rename(producer, never_ready)
    renamer.rename(consumer, never_ready)
    base = renamer.early_releases
    renamer.write(producer.dest_tag, 7)
    renamer.on_operand_read(consumer.src_tags[0])
    renamer.on_operand_read(consumer.src_tags[1])
    assert renamer.early_releases == base  # x1 not redefined: may still be read


def test_no_release_before_production():
    renamer = EarlyReleaseRenamer(40, 40)
    producer = make_inst(Op.MOVI, "x1", ())
    redefiner = make_inst(Op.MOVI, "x1", ())
    renamer.rename(producer, never_ready)
    base = renamer.early_releases
    renamer.rename(redefiner, never_ready)
    assert renamer.early_releases == base  # value not produced yet
    renamer.write(producer.dest_tag, 1)
    assert renamer.early_releases == base + 1


def test_commit_releases_when_early_path_missed():
    renamer = EarlyReleaseRenamer(40, 40)
    i1 = make_inst(Op.MOVI, "x1", ())
    i2 = make_inst(Op.MOVI, "x1", ())
    renamer.rename(i1, never_ready)
    renamer.rename(i2, never_ready)
    renamer.commit(i1)  # releases the (never-produced-tracking) initial reg
    renamer.commit(i2)
    assert renamer.commit_releases + renamer.early_releases >= 1
    # no double releases
    free = renamer.free_registers(RegClass.INT)
    assert free <= 40 - 32


def test_recover_refuses():
    renamer = EarlyReleaseRenamer(40, 40)
    with pytest.raises(PreciseStateUnavailable):
        renamer.recover()


def test_squash_to_refuses():
    """Early release does not inherit the conventional walk-back: a
    register released before its redefiner committed cannot be restored."""
    renamer = EarlyReleaseRenamer(40, 40)
    redefiner = make_inst(Op.MOVI, "x1", ())
    renamer.rename(redefiner, never_ready)
    with pytest.raises(NotImplementedError):
        renamer.squash_to([redefiner])


PROGRAM = """
.data
arr: .word 5 6 7 8
.text
main: movi x1, arr
      movi x2, 0
      movi x3, 4
loop: ld   x4, 0(x1)
      mul  x5, x4, x4
      add  x2, x2, x5
      addi x1, x1, 8
      subi x3, x3, 1
      bnez x3, loop
      halt
"""


def test_pipeline_correct_without_faults():
    program = assemble(PROGRAM)
    config = MachineConfig(scheme="early", int_regs=40, fp_regs=40)
    processor = program_processor(config, program)
    processor.run()
    reference = run_to_completion(program)
    int_regs, _ = processor.architectural_state()
    assert int_regs == reference.int_regs


def test_pipeline_faults_raise():
    config = MachineConfig(scheme="early", int_regs=40, fp_regs=40)
    processor = program_processor(config, assemble(PROGRAM),
                                  FirstTouchFaults())
    with pytest.raises(PreciseStateUnavailable):
        processor.run()


def test_early_release_relieves_pressure_vs_conventional():
    """The comparator frees registers earlier, so with a starved file it
    stalls less than the conventional scheme."""
    program = assemble(PROGRAM)
    results = {}
    for scheme in ("conventional", "early"):
        config = MachineConfig(scheme=scheme, int_regs=36, fp_regs=36)
        results[scheme] = simulate(config, program)
    assert results["early"].rename_stall_regs <= \
        results["conventional"].rename_stall_regs
    assert results["early"].ipc >= results["conventional"].ipc * 0.999

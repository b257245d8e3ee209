"""Wrong-path speculation: fetch past mispredictions, walk-back squash.

This exercises the paper's branch-misprediction recovery case for real:
wrong-path instructions rename (allocating and *reusing* physical
registers, overwriting shared ones), then the resolution walk-back rolls
the PRT back version by version — restoring the overwritten values from
their shadow cells — and execution continues on the correct path with
verification enabled.
"""

import pytest

from repro import MachineConfig, assemble
from repro.core.register_file import RegisterFileConfig
from repro.core.sharing import SharingRenamer
from repro.frontend.fetch import IterSource
from repro.isa.executor import FunctionalExecutor, run_to_completion
from repro.isa.opcodes import Op
from repro.pipeline.processor import Processor
from repro.workloads import BENCHMARKS, SyntheticWorkload

from tests.util import make_inst, never_ready

# data-dependent branches -> guaranteed mispredictions
BRANCHY = """
.data
arr: .word 3 1 4 1 5 9 2 6 5 3 5 8 9 7 9 3
.text
main: movi x1, arr
      movi x2, 0
      movi x3, 16
      movi x9, 0
loop: ld   x4, 0(x1)
      andi x5, x4, 1
      beqz x5, even        # data-dependent: mispredicts often
      add  x2, x2, x4
      jmp  next
even: sub  x9, x9, x4
next: addi x1, x1, 8
      subi x3, x3, 1
      bnez x3, loop
      halt
"""


def run(scheme, text=BRANCHY, **cfg):
    program = assemble(text)
    config = MachineConfig(scheme=scheme, model_wrong_path=True,
                           int_regs=48, fp_regs=48, **cfg)
    executor = FunctionalExecutor(program)
    processor = Processor(config, IterSource(executor.run(100_000)))
    stats = processor.run()
    return processor, stats


# ------------------------------------------------------------- renamer unit
def test_sharing_walkback_restores_map_and_versions():
    cfg = RegisterFileConfig(bank_sizes=(0, 0, 0, 64))
    renamer = SharingRenamer(cfg, RegisterFileConfig(bank_sizes=(33, 0, 0, 8)))
    i1 = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)
    renamer.rename(i1, never_ready)
    renamer.write(i1.dest_tag, 41)
    map_before = renamer.domains[i1.dest.cls].map.entries.copy()
    prt = renamer.domains[i1.dest.cls].prt

    # wrong path: a chain reusing x1's register twice + a fresh allocation
    w1 = make_inst(Op.ADD, "x1", ("x1", "x3"), pc=100, wrong_path=True)
    w2 = make_inst(Op.ADD, "x1", ("x1", "x3"), pc=101, wrong_path=True)
    w3 = make_inst(Op.ADD, "x4", ("x2", "x3"), pc=102, wrong_path=True)
    for w in (w1, w2, w3):
        renamer.rename(w, never_ready)
    phys = i1.dest_tag[1]
    assert prt[phys].version == 2
    renamer.write(w1.dest_tag, -1)  # speculatively overwrites into shadow

    free_before = renamer.domains[i1.dest.cls].free.free_count()
    restores = renamer.squash_to([w3, w2, w1])  # youngest first
    assert restores == 2  # two reuses rolled back
    assert prt[phys].version == 0
    assert renamer.domains[i1.dest.cls].map.entries.copy() == map_before
    assert renamer.domains[i1.dest.cls].free.free_count() == free_before + 1
    # the shadow-cell copy of the original value is current again
    assert renamer.read(i1.dest_tag) == 41


def test_conventional_walkback_restores_free_list():
    from repro.core.conventional import ConventionalRenamer

    renamer = ConventionalRenamer(40, 40)
    free0 = renamer.free_registers(__import__("repro.isa.registers",
                                              fromlist=["RegClass"]).RegClass.INT)
    w1 = make_inst(Op.MOVI, "x1", (), wrong_path=True)
    w2 = make_inst(Op.MOVI, "x2", (), wrong_path=True)
    renamer.rename(w1, never_ready)
    renamer.rename(w2, never_ready)
    assert renamer.squash_to([w2, w1]) == 0
    domain = renamer.domains[w1.dest.cls]
    assert len(domain.free) == free0
    assert domain.map.get(1) == domain.retire_map.get(1)


# ------------------------------------------------------------- pipeline
@pytest.mark.parametrize("scheme", ["conventional", "sharing"])
def test_wrong_path_execution_preserves_correctness(scheme):
    reference = run_to_completion(assemble(BRANCHY))
    processor, stats = run(scheme)
    int_regs, _ = processor.architectural_state()
    assert int_regs == reference.int_regs
    assert stats.wrong_path_squashed > 0  # speculation actually happened
    assert stats.branch_stats.mispredicted > 0


def test_wrong_path_reuses_shared_registers_and_recovers():
    """Wrong-path instructions reuse registers; resolution rolls back."""
    processor, stats = run("sharing")
    renamer = stats.renamer_stats
    # recovery cycles include shadow restores charged by walk-backs
    assert stats.wrong_path_squashed > 0
    reference = run_to_completion(assemble(BRANCHY))
    int_regs, _ = processor.architectural_state()
    assert int_regs == reference.int_regs


def test_wrong_path_with_exceptions_combined():
    from repro.isa import FirstTouchFaults

    program = assemble(BRANCHY)
    faults = FirstTouchFaults()
    config = MachineConfig(scheme="sharing", model_wrong_path=True,
                           int_regs=48, fp_regs=48)
    executor = FunctionalExecutor(program, fault_model=faults)
    processor = Processor(config, IterSource(executor.run(100_000)),
                          fault_model=faults)
    stats = processor.run()
    assert stats.exceptions >= 1
    reference = run_to_completion(assemble(BRANCHY))
    int_regs, _ = processor.architectural_state()
    assert int_regs == reference.int_regs


def test_wrong_path_pollutes_cache():
    program = assemble(BRANCHY)
    results = {}
    for wrong_path in (False, True):
        config = MachineConfig(scheme="conventional", int_regs=64, fp_regs=64,
                               model_wrong_path=wrong_path)
        executor = FunctionalExecutor(program)
        processor = Processor(config, IterSource(executor.run(100_000)))
        stats = processor.run()
        results[wrong_path] = stats
    # wrong-path loads add demand accesses to the data cache
    assert results[True].cache_stats["l1d"].accesses >= \
        results[False].cache_stats["l1d"].accesses


def test_early_scheme_rejects_wrong_path():
    with pytest.raises(ValueError):
        run("early")


def test_wrong_path_on_synthetic_workload():
    workload = SyntheticWorkload(BENCHMARKS["gobmk"], total_insts=4000)
    config = MachineConfig(scheme="sharing", model_wrong_path=True,
                           int_regs=64, fp_regs=64)
    processor = Processor(config, IterSource(iter(workload)))
    stats = processor.run()
    assert stats.committed == 4000
    assert stats.wrong_path_squashed > 0

"""Edge-case tests for under-covered corners."""

import pytest

from repro import MachineConfig, assemble, simulate
from repro.core.prt import LOG_CAP
from repro.core.register_file import RegisterFileConfig
from repro.core.sharing import SharingRenamer
from repro.isa.executor import run_to_completion
from repro.isa.opcodes import Op
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.trace import trace_gantt, trace_table

from tests.util import make_inst, never_ready, program_processor


# ------------------------------------------------------------- trace render
def test_trace_gantt_empty():
    assert trace_gantt([]) == "(empty trace)"


def test_trace_table_empty():
    text = trace_table([])
    assert "instruction" in text  # header renders even with no rows


def test_trace_gantt_wide_span_scales():
    a = make_inst(Op.NOP)
    a.fetch_cycle, a.rename_cycle, a.issue_cycle = 0, 1, 2
    a.complete_cycle, a.commit_cycle = 3, 10_000
    text = trace_gantt([a])
    assert len(text.splitlines()[0]) < 100  # compressed to the width budget


# ------------------------------------------------------------- LSQ squash
def test_lsq_recount_after_unissued_store_squash():
    lsq = LoadStoreQueue()
    s1 = make_inst(Op.ST, None, ("x1", "x2"), mem_addr=0)
    s2 = make_inst(Op.ST, None, ("x1", "x2"), mem_addr=8)
    load = make_inst(Op.LD, "x3", ("x2",), mem_addr=16)
    for dyn in (s1, s2, load):
        lsq.insert(dyn)
    assert not lsq.load_can_issue(load)
    lsq.discard(s1)  # squash an unissued store
    assert not lsq.load_can_issue(load)  # s2 still blocks
    lsq.mark_issued(s2)
    assert lsq.load_can_issue(load)


def test_lsq_discard_issued_store_keeps_counts():
    lsq = LoadStoreQueue()
    store = make_inst(Op.ST, None, ("x1", "x2"), mem_addr=0)
    load = make_inst(Op.LD, "x3", ("x2",), mem_addr=0)
    lsq.insert(store)
    lsq.insert(load)
    lsq.mark_issued(store)
    lsq.discard(store)
    assert lsq.load_can_issue(load)
    assert lsq.forwarding_store(load) is None  # removed stores don't forward


# ------------------------------------------------------------- PRT log cap
def test_consumers_log_bounded():
    cfg = RegisterFileConfig(bank_sizes=(0, 0, 0, 128))
    renamer = SharingRenamer(cfg, RegisterFileConfig(bank_sizes=(33, 0, 0, 8)))
    producer = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)
    renamer.rename(producer, never_ready)
    phys = producer.dest_tag[1]
    entry = renamer.domains[producer.dest.cls].prt[phys]
    # flood with consumers that are denied (predictor trained to no)
    renamer.single_use.table = [0] * len(renamer.single_use.table)
    for i in range(LOG_CAP + 8):
        consumer = make_inst(Op.ADD, f"x{2 + (i % 20)}", ("x1", "x1"),
                             pc=100 + i)
        # re-point x1 at the producer's register between consumers
        renamer.domains[producer.dest.cls].map.set(1, (phys, 0))
        entry.read_bit = False
        renamer.rename(consumer, never_ready)
    assert len(entry.consumers_log) <= LOG_CAP


# ------------------------------------------------------------- RAS under load
def test_nested_calls_returns():
    text = """
    main:  movi x1, 0
           call f1
           call f1
           halt
    f1:    addi x1, x1, 1
           mov  x20, x31      # save link
           call f2
           mov  x31, x20
           ret
    f2:    addi x1, x1, 10
           ret
    """
    program = assemble(text)
    reference = run_to_completion(program)
    assert reference.int_regs[1] == 22
    for scheme in ("conventional", "sharing"):
        config = MachineConfig(scheme=scheme, int_regs=48, fp_regs=48)
        processor = program_processor(config, program)
        stats = processor.run()
        int_regs, _ = processor.architectural_state()
        assert int_regs == reference.int_regs


# ------------------------------------------------------------- config edges
def test_minimum_register_files():
    """33 registers per class is the floor (32 logical + 1)."""
    config = MachineConfig(scheme="conventional", int_regs=33, fp_regs=33)
    stats = simulate(config, assemble("main: movi x1, 1\nmovi x1, 2\nhalt"))
    assert stats.committed == 3
    with pytest.raises(ValueError):
        MachineConfig(scheme="conventional", int_regs=32, fp_regs=64).make_renamer()


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        MachineConfig(scheme="nonsense").make_renamer()


def test_explicit_banks_override():
    config = MachineConfig(scheme="sharing", int_banks=(40, 2, 2, 2),
                           fp_banks=(40, 2, 2, 2))
    renamer = config.make_renamer()
    from repro.isa.registers import RegClass

    assert renamer.domains[RegClass.INT].config.bank_sizes == (40, 2, 2, 2)


def test_counter_bits_one_in_pipeline():
    config = MachineConfig(scheme="sharing", int_regs=48, fp_regs=48,
                           counter_bits=1)
    program = assemble(
        """
        main: movi x9, 30
        loop: add  x1, x1, x9
              add  x1, x1, x9
              add  x1, x1, x9
              subi x9, x9, 1
              bnez x9, loop
              halt
        """
    )
    reference = run_to_completion(program)
    processor = program_processor(config, program)
    processor.run()
    int_regs, _ = processor.architectural_state()
    assert int_regs == reference.int_regs

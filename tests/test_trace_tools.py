"""Tests for the pipeline trace viewer and trace serialization."""

import io

from repro import MachineConfig, assemble
from repro.frontend.fetch import IterSource
from repro.isa.executor import FunctionalExecutor
from repro.pipeline.processor import Processor
from repro.pipeline.trace import reuse_annotations, trace_gantt, trace_table
from repro.workloads import BENCHMARKS, SyntheticWorkload
from repro.workloads.trace_io import load_trace, save_trace

PROGRAM = """
main: movi x1, 4
      movi x2, 0
loop: add  x2, x2, x1
      mul  x3, x2, x2
      subi x1, x1, 1
      bnez x1, loop
      halt
"""


def traced_run(scheme="sharing"):
    program = assemble(PROGRAM)
    config = MachineConfig(scheme=scheme, int_regs=48, fp_regs=48)
    executor = FunctionalExecutor(program)
    processor = Processor(config, IterSource(executor.run(10_000)),
                          keep_trace=True)
    processor.run()
    return processor


# --------------------------------------------------------------- trace viewer
def test_trace_collects_commit_order():
    processor = traced_run()
    trace = processor.trace
    assert trace is not None and len(trace) > 10
    seqs = [d.seq for d in trace if not d.micro_op]
    assert seqs == sorted(seqs)
    for dyn in trace:
        assert dyn.commit_cycle >= dyn.complete_cycle >= dyn.issue_cycle


def test_trace_table_renders():
    processor = traced_run()
    text = trace_table(processor.trace, limit=10)
    assert "instruction" in text
    assert "movi" in text
    assert "..." in text  # truncation marker


def test_trace_gantt_renders():
    processor = traced_run()
    text = trace_gantt(processor.trace, limit=8)
    lines = text.splitlines()
    assert len(lines) == 8
    assert all("|" in line for line in lines)
    assert "F" in text and "C" in text


def test_reuse_annotations_show_shared_registers():
    processor = traced_run("sharing")
    text = reuse_annotations(processor.trace)
    assert "reused" in text  # the x2 accumulator chain shares registers


def test_reuse_annotations_empty_for_conventional():
    processor = traced_run("conventional")
    assert reuse_annotations(processor.trace) == "(no reuses)"


# --------------------------------------------------------------- trace io
def test_trace_roundtrip():
    insts = list(SyntheticWorkload(BENCHMARKS["adpcm"], total_insts=500))
    buffer = io.StringIO()
    count = save_trace(insts, buffer)
    assert count == 500
    buffer.seek(0)
    restored = list(load_trace(buffer))
    assert len(restored) == 500
    for a, b in zip(insts, restored):
        assert (a.seq, a.pc, a.op, a.dest, a.srcs) == (b.seq, b.pc, b.op, b.dest, b.srcs)
        assert a.src_values == b.src_values
        assert a.result == b.result
        assert (a.taken, a.target, a.next_pc) == (b.taken, b.target, b.next_pc)
        assert a.mem_addr == b.mem_addr

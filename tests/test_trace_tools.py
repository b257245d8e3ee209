"""Tests for the pipeline trace viewer and trace serialization."""

import io

import repro.pipeline.trace
from repro import MachineConfig, assemble
from repro.pipeline.trace import reuse_annotations, trace_gantt, trace_table
from repro.workloads import BENCHMARKS, SyntheticWorkload

from tests.trace_io import load_trace, save_trace
from tests.util import program_processor

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
    """The committed instructions of PROGRAM, in commit order."""
    config = MachineConfig(scheme=scheme, int_regs=48, fp_regs=48)
    trace = []
    program_processor(config, assemble(PROGRAM),
                      on_commit=lambda _p, dyn: trace.append(dyn)).run()
    return trace


# --------------------------------------------------------------- trace viewer
def test_trace_collects_commit_order():
    trace = traced_run()
    assert len(trace) > 10
    seqs = [d.seq for d in trace if not d.micro_op]
    assert seqs == sorted(seqs)
    for dyn in trace:
        assert dyn.commit_cycle >= dyn.complete_cycle >= dyn.issue_cycle


def test_trace_table_renders():
    trace = traced_run()
    text = trace_table(trace)
    assert "instruction" in text
    assert "movi" in text
    assert len(text.splitlines()) == len(trace) + 2  # header, rule, rows


def test_trace_gantt_renders(monkeypatch):
    trace = traced_run()
    monkeypatch.setattr(repro.pipeline.trace, "GANTT_ROWS", 8)
    assert len(trace) > 8
    text = trace_gantt(trace)
    lines = text.splitlines()
    assert len(lines) == 8  # cut to the first GANTT_ROWS instructions
    assert all("|" in line for line in lines)
    assert "F" in text and "C" in text


def test_reuse_annotations_show_shared_registers():
    trace = traced_run("sharing")
    text = reuse_annotations(trace)
    assert "reused" in text  # the x2 accumulator chain shares registers


def test_reuse_annotations_empty_for_conventional():
    trace = traced_run("conventional")
    assert reuse_annotations(trace) == "(no reuses)"


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

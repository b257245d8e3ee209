#!/usr/bin/env python3
"""Pipeline visualiser: watch physical register sharing happen.

Runs a short chain-heavy kernel, collects its committed instructions
with an ``on_commit`` hook and prints (a) the stage-timeline table,
(b) an ASCII Gantt chart, (c) the reuse annotations showing which
instructions shared a physical register, and (d) the register-lifetime
summary that motivates the whole paper.

Run:  python examples/pipeline_visualizer.py [conventional|sharing]
"""

import sys

from repro import MachineConfig, assemble
from repro.analysis import analyze_lifetimes
from repro.frontend.fetch import IterSource
from repro.pipeline.processor import Processor, program_stream
from repro.pipeline.trace import reuse_annotations, trace_gantt, trace_table

PROGRAM = """
# Figure 4's shape: a chain of single-use redefinitions of x1
main: movi x2, 3
      movi x3, 4
      movi x4, 5
      add  x1, x2, x3     # I1
      ld   x5, 0(x6)      # I2 (x6 = 0: loads address 0)
      mul  x2, x5, x4     # I3
      add  x1, x1, x4     # I4: reuses I1's register (guaranteed)
      mul  x1, x1, x1     # I5: version 2
      mul  x1, x1, x5     # I6: version 3
      add  x7, x1, x2     # I7
      sub  x2, x7, x1     # I8
      halt
"""


def main() -> None:
    scheme = sys.argv[1] if len(sys.argv) > 1 else "sharing"
    config = MachineConfig(scheme=scheme, int_regs=48, fp_regs=48)
    stream, _ = program_stream(config, assemble(PROGRAM))
    trace = []
    processor = Processor(config, IterSource(stream),
                          on_commit=lambda _p, dyn: trace.append(dyn))
    stats = processor.run()

    print(f"=== {scheme} scheme: {stats.committed} instructions, "
          f"{stats.cycles} cycles ===\n")
    print(trace_table(trace))
    print("\n--- pipeline occupancy (F fetch, R rename, I issue, "
          "W writeback, C commit) ---")
    print(trace_gantt(trace))
    print("\n--- register reuse ---")
    print(reuse_annotations(trace))

    analysis = analyze_lifetimes(trace)
    if analysis.lifetimes:
        print(f"\n--- lifetimes: mean dead interval "
              f"{analysis.mean_dead_interval:.1f} cycles "
              f"({100 * analysis.dead_fraction:.0f}% of live time) ---")
    renamer = stats.renamer_stats
    print(f"\nallocations: {renamer.allocations}, reuses: {renamer.reuses} "
          f"(run with the other scheme to compare)")


if __name__ == "__main__":
    main()

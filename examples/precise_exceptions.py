#!/usr/bin/env python3
"""Precise exceptions with shared physical registers (paper Section IV-B).

Recreates the paper's running example: a load page-faults while younger
instructions in a reuse chain have already overwritten the shared physical
register.  The shadow cells recover the old values at the exception, the
pipeline replays, and the final architectural state matches the in-order
reference exactly.

Run:  python examples/precise_exceptions.py
"""

from repro import MachineConfig, assemble
from repro.frontend.fetch import IterSource
from repro.isa import FirstTouchFaults
from repro.isa.executor import run_to_completion
from repro.pipeline.processor import Processor, program_stream

PROGRAM = """
# I2-style faulting load with a younger reuse chain (paper Figure 4 + IV-B)
.data
v: .word 17

.text
main:   movi x1, v
        movi x2, 1
        ld   x3, 0(x1)     # page-faults on first touch
        add  x2, x2, x2    # x2 chain: versions share one physical register
        add  x2, x2, x2
        add  x2, x2, x2    # x2 = 8
        add  x4, x3, x2    # needs the faulted load's value: x4 = 25
        halt
"""


def run(scheme: str):
    config = MachineConfig(scheme=scheme, int_regs=48, fp_regs=48)
    # each page faults on its first access in program order
    stream, _ = program_stream(config, assemble(PROGRAM), FirstTouchFaults())
    processor = Processor(config, IterSource(stream))
    stats = processor.run()
    return processor, stats


def main() -> None:
    reference = run_to_completion(assemble(PROGRAM))
    print("in-order reference: x2=%d x3=%d x4=%d\n"
          % (reference.int_regs[2], reference.int_regs[3], reference.int_regs[4]))

    for scheme in ("conventional", "sharing"):
        processor, stats = run(scheme)
        int_regs, _ = processor.architectural_state()
        ok = int_regs == reference.int_regs
        renamer = stats.renamer_stats
        print(f"{scheme}:")
        print(f"  exceptions taken:        {stats.exceptions}")
        print(f"  recovery cycles charged: {stats.recovery_cycles}")
        print(f"  map entries recovered:   {renamer.recovered_map_entries}")
        print(f"  register reuses:         {renamer.reuses}")
        print(f"  precise state restored:  {'YES' if ok else 'NO'}"
              f"  (x2={int_regs[2]} x3={int_regs[3]} x4={int_regs[4]})")
        print()

    print("Under the sharing scheme the x2 chain overwrote its register")
    print("three times before the load's fault was taken; the shadow-cell")
    print("recovery walked the map-table diff and restored the committed")
    print("versions, so the replay observes precise state.")


if __name__ == "__main__":
    main()

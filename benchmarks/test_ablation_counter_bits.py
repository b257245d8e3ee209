"""Ablation: PRT version-counter width (paper Section IV-A).

The paper generalises the 2-bit counter to N bits and argues 2 bits are
the sweet spot: chains longer than four instructions are unusual
(Figure 3), while wider counters cost PRT and issue-queue bits.  We sweep
1/2/3 bits at equal area with a 48-register baseline, so each width pays
for its counters in registers, and check the saturation.
"""

from conftest import run_once

from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import simulate
from repro.workloads import BENCHMARKS, SyntheticWorkload

#: baseline register count the equal-area banks are sized from
REGS = 48


def sweep(scale):
    results = {}
    for bits in (1, 2, 3):
        reuse, ipc = [], []
        for name in ("bwaves", "lbm", "hmmer"):
            profile = BENCHMARKS[name]
            workload = SyntheticWorkload(profile, total_insts=scale.insts)
            config = MachineConfig(
                scheme="sharing", int_regs=REGS, fp_regs=REGS,
                counter_bits=bits, verify_values=False,
            )
            stats = simulate(config, iter(workload))
            reuse.append(stats.renamer_stats.reuse_fraction)
            ipc.append(stats.ipc)
        results[bits] = (sum(reuse) / len(reuse), sum(ipc) / len(ipc))
    return results


def test_counter_bits_ablation(benchmark, scale):
    results = run_once(benchmark, lambda: sweep(scale))
    print()
    for bits, (reuse, ipc) in results.items():
        print(f"  {bits}-bit counter: reuse {100 * reuse:5.1f}%  IPC {ipc:.3f}")

    # more counter bits never reduce reuse opportunity
    assert results[2][0] >= results[1][0] - 0.01
    # but the 2 -> 3 bit step adds little: chains beyond four are unusual
    gain_1_to_2 = results[2][0] - results[1][0]
    gain_2_to_3 = results[3][0] - results[2][0]
    assert gain_2_to_3 <= max(gain_1_to_2, 0.02) + 0.01

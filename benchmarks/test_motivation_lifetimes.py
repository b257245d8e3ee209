"""Section II motivation: "many cycles may happen between the last read
and the release of a physical register".

Not a numbered figure, but a quantified claim the whole paper rests on.
We measure the dead interval (release − last read) under conventional
renaming and check that the sharing scheme reclaims it for reused values.
"""

from conftest import run_once

from repro.analysis import analyze_lifetimes
from repro.frontend.fetch import IterSource
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import Processor
from repro.workloads import BENCHMARKS, SyntheticWorkload


def traced(scheme, name, scale):
    workload = SyntheticWorkload(BENCHMARKS[name], total_insts=scale.insts)
    config = MachineConfig(scheme=scheme, int_regs=64, fp_regs=64,
                           verify_values=False)
    trace = []
    Processor(config, IterSource(iter(workload)),
              on_commit=lambda _p, dyn: trace.append(dyn)).run()
    return analyze_lifetimes(trace)


def test_dead_interval_motivation(benchmark, scale):
    def sweep():
        results = {}
        for name in ("bwaves", "gcc", "gmm"):
            results[name] = {
                scheme: traced(scheme, name, scale)
                for scheme in ("conventional", "sharing")
            }
        return results

    results = run_once(benchmark, sweep)
    print()
    for name, analyses in results.items():
        conv = analyses["conventional"]
        shar = analyses["sharing"]
        print(f"  {name:8s} conventional: dead {conv.mean_dead_interval:6.1f} "
              f"cycles ({100 * conv.dead_fraction:4.1f}% of live)   "
              f"sharing: dead {shar.mean_dead_interval:6.1f} cycles")

        # the motivation: a substantial dead interval exists at all
        assert conv.mean_dead_interval > 2.0, name
        assert conv.dead_fraction > 0.05, name
        # and the sharing scheme shrinks it
        assert shar.mean_dead_interval < conv.mean_dead_interval, name

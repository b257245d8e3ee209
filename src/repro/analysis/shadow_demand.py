"""Shadow-cell demand study (paper Figure 9).

Runs the sharing scheme with effectively unbounded 3-shadow registers and
samples, every few cycles, how many physical registers currently hold 2,
3 or 4 live versions (i.e. are using at least 1, 2 or 3 shadow cells).
The coverage curves answer Figure 9's question: how many registers with
k shadow cells are needed to cover X% of execution time?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.frontend.fetch import IterSource
from repro.isa.dyninst import DynInst
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import Processor


@dataclass
class ShadowDemand:
    """Sampled shadow-cell usage."""

    #: samples[k] = list of per-sample counts of registers using >= k shadows
    samples: dict = field(default_factory=lambda: {1: [], 2: [], 3: []})

    def registers_needed(self, shadows: int, coverage: float) -> int:
        """Registers with >= ``shadows`` shadow cells covering ``coverage``
        of sampled cycles."""
        data = sorted(self.samples[shadows])
        if not data:
            return 0
        index = min(len(data) - 1, int(coverage * len(data)))
        return data[index]


def measure_shadow_demand(
    workload: Iterable[DynInst],
    total_regs: int = 256,
    sample_interval: int = 64,
    config: Optional[MachineConfig] = None,
) -> ShadowDemand:
    """Run the sharing scheme with ample 3-shadow registers and sample."""
    demand = ShadowDemand()

    def sample(processor: Processor) -> None:
        histogram = processor.renamer.live_version_histogram()
        for k in (1, 2, 3):
            using = sum(count for versions, count in histogram.items()
                        if versions >= k + 1)
            demand.samples[k].append(using)

    cfg = config or MachineConfig()
    cfg = cfg.with_scheme(
        "sharing",
        int_banks=(0, 0, 0, total_regs),
        fp_banks=(0, 0, 0, total_regs),
    )
    processor = Processor(cfg, IterSource(iter(workload)),
                          on_cycle=sample, on_cycle_interval=sample_interval)
    processor.run()
    return demand

"""The paper's headline results (Section VI / abstract).

* ~6% average speedup for SPEC2006 at equal area, and
* the same performance with ~10.5% fewer registers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.figures import figure10, figure11
from repro.harness.render import pct
from repro.harness.runner import Scale, geomean


@dataclass
class HeadlineResult:
    average_speedup: float
    iso_ipc_saving: float
    per_size: dict

    def render(self) -> str:
        sizes = ", ".join(f"RF {s}: {pct(v - 1.0)}"
                          for s, v in self.per_size.items())
        return (
            "Headline results\n"
            f"  average SPEC2006 speedup (equal area): {pct(self.average_speedup - 1.0)}"
            f"  [paper: 6%]\n"
            f"  per-size averages: {sizes}\n"
            f"  iso-IPC register saving: {pct(self.iso_ipc_saving)}  [paper: 10.5%]"
        )


def headline(scale: Scale | None = None, *, jobs: int | None = None,
             cache=None) -> HeadlineResult:
    scale = scale or Scale.from_env()
    fp = figure10("specfp", scale, jobs=jobs, cache=cache)
    si = figure10("specint", scale, jobs=jobs, cache=cache)
    per_size = {}
    for size in scale.sizes:
        per_size[size] = geomean([fp.average(size), si.average(size)])
    # the paper's single number averages over the pressured register-file
    # range (gains vanish for very large files by construction)
    pressured = [per_size[s] for s in scale.sizes if s <= 80]
    average = geomean(pressured)
    saving = figure11(scale, jobs=jobs, cache=cache).iso_ipc_saving()
    return HeadlineResult(average_speedup=average, iso_ipc_saving=saving,
                          per_size=per_size)

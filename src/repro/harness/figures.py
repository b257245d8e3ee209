"""Figure reproductions.

Every function returns a result object whose ``render()`` produces the
figure's rows/series as text.  Figure numbering follows the paper:

* Figure 1  — single-consumer instruction fractions (redefine-same vs other)
* Figure 2  — consumers-per-value histogram
* Figure 3  — reuse-chain buckets (one/two/three/more)
* Figure 9  — shadow-cell demand coverage
* Figure 10 — per-benchmark speedups vs register-file size (a: fp, b: int,
  c: mediabench+cognitive)
* Figure 11 — average IPC vs register-file size, both schemes
* Figure 12 — register-type predictor accuracy breakdown
* Ports      — read-port-reduction schemes as an extra equal-area axis
  (not in the paper; compares the sharing scheme against conventional
  baselines that spend their area budget on port reduction instead)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.parallel import (SweepPoint, SweepError, collect_stats,
                                    run_points)
from repro.harness.render import pct, text_table
from repro.harness.runner import Scale, geomean, sweep_speedups

# Figures 1-3 and 9 import the analysis passes and the workload generator
# themselves, so the sweep figures render from cached results without them.

_SUITE_LABELS = {
    "specint": "SPECint",
    "specfp": "SPECfp",
    "media+cog": "Mediabench and Cognitive",
}


def _suite_profiles(scale: Scale, key: str):
    if key == "media+cog":
        return scale.profiles("mediabench") + scale.profiles("cognitive")
    return scale.profiles(key)


# ====================================================================== Fig 1
@dataclass
class Figure1Result:
    #: suite -> list of (benchmark, redefine_same, redefine_other)
    series: dict = field(default_factory=dict)

    def suite_average(self, suite: str) -> float:
        rows = self.series[suite]
        return sum(same + other for _b, same, other in rows) / len(rows)

    def render(self) -> str:
        blocks = []
        for suite, rows in self.series.items():
            table_rows = [[b, pct(same), pct(other), pct(same + other)]
                          for b, same, other in rows]
            average = self.suite_average(suite)
            table_rows.append(["average", "", "", pct(average)])
            blocks.append(text_table(
                ["benchmark", "redefine same", "redefine other", "total"],
                table_rows,
                title=f"Figure 1 ({_SUITE_LABELS[suite]}): single-consumer "
                      f"instructions",
            ))
        return "\n\n".join(blocks)


def figure1(scale: Scale | None = None) -> Figure1Result:
    from repro.analysis import analyze_stream
    from repro.workloads.generator import SyntheticWorkload

    scale = scale or Scale.from_env()
    result = Figure1Result()
    for suite in ("specint", "specfp", "media+cog"):
        rows = []
        for profile in _suite_profiles(scale, suite):
            analysis = analyze_stream(
                iter(SyntheticWorkload(profile, scale.insts, scale.seed)))
            rows.append((profile.name, analysis.redefine_same_fraction,
                         analysis.redefine_other_fraction))
        result.series[suite] = rows
    return result


# ====================================================================== Fig 2
@dataclass
class Figure2Result:
    #: suite -> averaged {consumer count -> fraction}
    histograms: dict = field(default_factory=dict)

    def single_use_fraction(self, suite: str) -> float:
        return self.histograms[suite].get(1, 0.0)

    def render(self) -> str:
        buckets = [1, 2, 3, 4, 5, 6]
        rows = []
        for suite, histogram in self.histograms.items():
            rows.append([_SUITE_LABELS[suite]] +
                        [pct(histogram.get(b, 0.0)) for b in buckets])
        return text_table(
            ["suite", "one", "two", "three", "four", "five", "6 or more"],
            rows, title="Figure 2: consumers per produced value")


def figure2(scale: Scale | None = None) -> Figure2Result:
    from repro.analysis import analyze_stream
    from repro.workloads.generator import SyntheticWorkload

    scale = scale or Scale.from_env()
    result = Figure2Result()
    for suite in ("specint", "specfp", "media+cog"):
        profiles = _suite_profiles(scale, suite)
        accumulated: dict[int, float] = {}
        for profile in profiles:
            analysis = analyze_stream(
                iter(SyntheticWorkload(profile, scale.insts, scale.seed)))
            for bucket, fraction in analysis.consumer_fractions().items():
                accumulated[bucket] = accumulated.get(bucket, 0.0) + fraction
        result.histograms[suite] = {
            b: v / len(profiles) for b, v in accumulated.items()
        }
    return result


# ====================================================================== Fig 3
@dataclass
class Figure3Result:
    #: suite -> list of (benchmark, {one,two,three,more})
    series: dict = field(default_factory=dict)

    def suite_average(self, suite: str) -> dict:
        rows = self.series[suite]
        keys = ("one", "two", "three", "more")
        return {k: sum(s[k] for _b, s in rows) / len(rows) for k in keys}

    def render(self) -> str:
        blocks = []
        for suite, rows in self.series.items():
            table_rows = [
                [b, pct(s["one"]), pct(s["two"]), pct(s["three"]), pct(s["more"])]
                for b, s in rows
            ]
            avg = self.suite_average(suite)
            table_rows.append(["average"] + [pct(avg[k]) for k in
                                             ("one", "two", "three", "more")])
            blocks.append(text_table(
                ["benchmark", "one reuse", "two reuses", "three reuses", "more"],
                table_rows,
                title=f"Figure 3 ({_SUITE_LABELS[suite]}): reusable "
                      f"destination renames by chain depth"))
        return "\n\n".join(blocks)


def figure3(scale: Scale | None = None) -> Figure3Result:
    from repro.analysis import analyze_chains
    from repro.workloads.generator import SyntheticWorkload

    scale = scale or Scale.from_env()
    result = Figure3Result()
    for suite in ("specint", "specfp", "media+cog"):
        rows = []
        for profile in _suite_profiles(scale, suite):
            chains = analyze_chains(
                iter(SyntheticWorkload(profile, scale.insts, scale.seed)))
            rows.append((profile.name, chains.figure3_series()))
        result.series[suite] = rows
    return result


# ====================================================================== Fig 9
@dataclass
class Figure9Result:
    #: shadow cells (1..3) -> {coverage -> registers needed}
    coverage: dict = field(default_factory=dict)

    def render(self) -> str:
        coverages = sorted(next(iter(self.coverage.values())).keys())
        rows = [[f"{k} shadow cell(s)"] +
                [str(self.coverage[k][c]) for c in coverages]
                for k in sorted(self.coverage)]
        return text_table(
            ["registers with"] + [pct(c, 0) + " of time" for c in coverages],
            rows,
            title="Figure 9: registers with shadow cells needed to cover "
                  "SPECfp execution")


def figure9(scale: Scale | None = None) -> Figure9Result:
    from repro.analysis import ShadowDemand, measure_shadow_demand
    from repro.workloads.generator import SyntheticWorkload

    scale = scale or Scale.from_env()
    profiles = scale.profiles("specfp")[:4]
    merged = ShadowDemand()
    for profile in profiles:
        workload = list(SyntheticWorkload(profile, scale.insts, scale.seed))
        demand = measure_shadow_demand(workload, total_regs=192)
        for k in (1, 2, 3):
            merged.samples[k].extend(demand.samples[k])
    coverages = (0.5, 0.75, 0.9, 0.95, 0.99)
    return Figure9Result({
        k: {c: merged.registers_needed(k, c) for c in coverages}
        for k in (1, 2, 3)
    })


# ====================================================================== Fig 10
@dataclass
class Figure10Result:
    suite: str
    sizes: tuple
    rows: list = field(default_factory=list)  # SpeedupRow

    def average(self, size: int) -> float:
        return geomean(row.speedups[size] for row in self.rows)

    def render(self) -> str:
        table_rows = [
            [row.benchmark] + [pct(row.speedups[s] - 1.0) for s in self.sizes]
            for row in self.rows
        ]
        table_rows.append(
            ["average"] + [pct(self.average(s) - 1.0) for s in self.sizes])
        return text_table(
            ["benchmark"] + [f"RF {s}" for s in self.sizes], table_rows,
            title=f"Figure 10 ({_SUITE_LABELS.get(self.suite, self.suite)}): "
                  f"speedup over the baseline at equal area")


def figure10(suite: str, scale: Scale | None = None, *,
             jobs: int | None = None, cache=None) -> Figure10Result:
    scale = scale or Scale.from_env()
    profiles = _suite_profiles(scale, suite)
    rows = sweep_speedups(profiles, scale, jobs=jobs, cache=cache)
    return Figure10Result(suite=suite, sizes=scale.sizes, rows=rows)


# ====================================================================== Fig 11
@dataclass
class Figure11Result:
    sizes: tuple
    baseline_ipc: dict = field(default_factory=dict)
    proposed_ipc: dict = field(default_factory=dict)

    def iso_ipc_saving(self) -> float:
        """Register saving: smallest proposed size matching each baseline
        size's IPC, averaged (the paper's 10.5% claim)."""
        savings = []
        sizes = sorted(self.sizes)
        for baseline_size in sizes[1:]:
            target = self.baseline_ipc[baseline_size]
            for proposed_size in sizes:
                if self.proposed_ipc[proposed_size] >= target * 0.995:
                    if proposed_size < baseline_size:
                        savings.append(1.0 - proposed_size / baseline_size)
                    else:
                        savings.append(0.0)
                    break
        return sum(savings) / len(savings) if savings else 0.0

    def render(self) -> str:
        rows = [
            [s, f"{self.baseline_ipc[s]:.3f}", f"{self.proposed_ipc[s]:.3f}"]
            for s in self.sizes
        ]
        table = text_table(["registers", "baseline IPC", "proposed IPC"], rows,
                           title="Figure 11: average IPC vs register file size")
        return table + f"\niso-IPC register saving: {pct(self.iso_ipc_saving())}"


def figure11(scale: Scale | None = None, *, jobs: int | None = None,
             cache=None) -> Figure11Result:
    scale = scale or Scale.from_env()
    profiles = scale.profiles("specint") + scale.profiles("specfp")
    points = [
        SweepPoint(profile=profile, scheme=scheme, size=size,
                   insts=scale.insts, seed=scale.seed,
                   sampling=scale.sampling)
        for size in scale.sizes
        for profile in profiles
        for scheme in ("conventional", "sharing")
    ]
    stats = collect_stats(run_points(points, jobs=jobs, cache=cache))
    result = Figure11Result(sizes=scale.sizes)
    for size in scale.sizes:
        base = [stats[(p.name, "conventional", size, scale.seed)].ipc
                for p in profiles]
        prop = [stats[(p.name, "sharing", size, scale.seed)].ipc
                for p in profiles]
        result.baseline_ipc[size] = sum(base) / len(base)
        result.proposed_ipc[size] = sum(prop) / len(prop)
    return result


# ====================================================================== Ports
#: (renamer scheme, port scheme) columns of the ports figure.  The three
#: conventional baselines are equal-area: the port-reduced ones convert
#: the saved port area into extra rename registers (repro.area.equal_area),
#: so every column spends the same register-file budget differently.
PORT_CONFIGS = (
    ("conventional", "none"),
    ("conventional", "bypass_filter"),
    ("conventional", "banked_arbiter"),
    ("sharing", "none"),
)

_PORT_REDUCED = ("bypass_filter", "banked_arbiter")


@dataclass
class FigurePortsResult:
    sizes: tuple
    #: (scheme, port_scheme, size) -> average IPC across the profiles
    ipc: dict = field(default_factory=dict)
    #: (port_scheme, size) -> (equal-area int regs, equal-area fp regs)
    bonus: dict = field(default_factory=dict)
    #: (port_scheme, size) -> summed port counters across the profiles:
    #: {"stalls", "reads", "bypass", "delay", "insts"}
    counters: dict = field(default_factory=dict)

    def sharing_vs_best(self, size: int) -> float:
        """Sharing-scheme IPC over the *best* port-reduced conventional
        baseline at the same area — the figure's headline ratio."""
        best = max(self.ipc[("conventional", ps, size)]
                   for ps in _PORT_REDUCED)
        return self.ipc[("sharing", "none", size)] / best if best else 1.0

    def headline(self) -> float:
        return geomean(self.sharing_vs_best(s) for s in self.sizes)

    def render(self) -> str:
        rows = []
        for s in self.sizes:
            rows.append([
                s,
                f"{self.ipc[('conventional', 'none', s)]:.3f}",
                f"{self.ipc[('conventional', 'bypass_filter', s)]:.3f}",
                f"{self.ipc[('conventional', 'banked_arbiter', s)]:.3f}",
                f"{self.ipc[('sharing', 'none', s)]:.3f}",
                pct(self.sharing_vs_best(s) - 1.0),
            ])
        ipc_table = text_table(
            ["registers", "conv 8R", "conv+bypass", "conv+banked",
             "sharing", "sharing vs best"],
            rows,
            title="Ports figure: average IPC at equal area, read-port "
                  "reduction vs register sharing")
        detail_rows = []
        for ps in _PORT_REDUCED:
            for s in self.sizes:
                int_regs, fp_regs = self.bonus[(ps, s)]
                c = self.counters[(ps, s)]
                kinsts = c["insts"] / 1000.0 or 1.0
                served = c["reads"] + c["bypass"]
                detail_rows.append([
                    ps, s, f"{int_regs}/{fp_regs}",
                    f"{c['stalls'] / kinsts:.2f}",
                    pct(c["bypass"] / served) if served else "-",
                    f"{c['delay'] / kinsts:.2f}",
                ])
        detail_table = text_table(
            ["port scheme", "registers", "equal-area regs (int/fp)",
             "port stalls/kinst", "bypassed reads", "delay cycles/kinst"],
            detail_rows,
            title="Ports table: equal-area register bonus and port traffic "
                  "(conventional baseline)")
        return (ipc_table + "\n\n" + detail_table +
                f"\nsharing vs best port-reduced baseline: "
                f"{pct(self.headline() - 1.0)} (geomean over sizes)")


def figure_ports(scale: Scale | None = None, *, jobs: int | None = None,
                 cache=None) -> FigurePortsResult:
    """Does register sharing still win when the conventional baseline also
    spends its area on port reduction?  Sweeps every PORT_CONFIGS column
    over the specint+specfp profiles and the equal-area size axis."""
    from repro.area.equal_area import equal_area_regs

    scale = scale or Scale.from_env()
    profiles = scale.profiles("specint") + scale.profiles("specfp")
    points = [
        SweepPoint(profile=profile, scheme=scheme, size=size,
                   insts=scale.insts, seed=scale.seed,
                   sampling=scale.sampling, port_scheme=port_scheme)
        for size in scale.sizes
        for profile in profiles
        for scheme, port_scheme in PORT_CONFIGS
    ]
    results = run_points(points, jobs=jobs, cache=cache)
    failures = [r for r in results if not r.ok]
    if failures:
        raise SweepError(failures)
    # collect_stats keys on (benchmark, scheme, size, seed), which would
    # collide across port schemes — index by zipping the ordered results
    # back onto the ordered points instead
    stats = {(p.benchmark, p.scheme, p.port_scheme, p.size): r.stats
             for p, r in zip(points, results)}
    result = FigurePortsResult(sizes=scale.sizes)
    for size in scale.sizes:
        for scheme, port_scheme in PORT_CONFIGS:
            ipcs = [stats[(p.name, scheme, port_scheme, size)].ipc
                    for p in profiles]
            result.ipc[(scheme, port_scheme, size)] = sum(ipcs) / len(ipcs)
        for port_scheme in _PORT_REDUCED:
            result.bonus[(port_scheme, size)] = (
                equal_area_regs(size, port_scheme, bits=64),
                equal_area_regs(size, port_scheme, bits=128))
            sums = {"stalls": 0, "reads": 0, "bypass": 0, "delay": 0,
                    "insts": 0}
            for p in profiles:
                s = stats[(p.name, "conventional", port_scheme, size)]
                sums["stalls"] += s.rf_port_stalls
                sums["reads"] += s.rf_port_reads
                sums["bypass"] += s.rf_bypass_reads
                sums["delay"] += s.rf_delay_cycles
                sums["insts"] += s.committed
            result.counters[(port_scheme, size)] = sums
    return result


# ====================================================================== Fig 12
@dataclass
class Figure12Result:
    #: suite -> {category -> fraction of releases}
    breakdown: dict = field(default_factory=dict)

    def accuracy(self, suite: str) -> float:
        b = self.breakdown[suite]
        return b["reuse correct"] + b["no reuse correct"] + b["reuse unused"]

    def render(self) -> str:
        categories = ["reuse correct", "reuse incorrect", "no reuse correct",
                      "no reuse incorrect", "reuse unused"]
        rows = [[_SUITE_LABELS[suite]] + [pct(b[c]) for c in categories]
                for suite, b in self.breakdown.items()]
        return text_table(["suite"] + categories, rows,
                          title="Figure 12: register-type predictor accuracy")


def figure12(scale: Scale | None = None, size: int = 64, *,
             jobs: int | None = None, cache=None) -> Figure12Result:
    scale = scale or Scale.from_env()
    result = Figure12Result()
    all_profiles = [profile for suite in ("specint", "specfp")
                    for profile in _suite_profiles(scale, suite)]
    points = [SweepPoint(profile=profile, scheme="sharing", size=size,
                         insts=scale.insts, seed=scale.seed,
                         sampling=scale.sampling)
              for profile in all_profiles]
    by_key = collect_stats(run_points(points, jobs=jobs, cache=cache))
    for suite in ("specint", "specfp"):
        totals = {"reuse correct": 0, "reuse incorrect": 0,
                  "no reuse correct": 0, "no reuse incorrect": 0,
                  "reuse unused": 0}
        releases = 0
        for profile in _suite_profiles(scale, suite):
            stats = by_key[(profile.name, "sharing", size, scale.seed)]
            p = stats.predictor_stats
            totals["reuse correct"] += p.reuse_correct
            totals["reuse incorrect"] += p.reuse_incorrect
            totals["no reuse correct"] += p.no_reuse_correct
            totals["no reuse incorrect"] += p.no_reuse_incorrect
            totals["reuse unused"] += p.reuse_unused
            releases += p.releases
        result.breakdown[suite] = {
            k: v / releases if releases else 0.0 for k, v in totals.items()
        }
    return result

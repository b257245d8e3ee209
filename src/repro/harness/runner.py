"""Simulation driving for the experiment harness."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache

from repro.harness.parallel import SweepPoint, collect_stats, run_points
from repro.pipeline.config import MachineConfig
from repro.workloads.profiles import BENCHMARKS, WorkloadProfile, suite

#: Register-file sizes swept in Figures 10 and 11 (paper: 48..112).
RF_SIZES = (48, 56, 64, 80, 96)

#: representative subsets used at the quick scale
_QUICK = {
    "specint": ["gcc", "mcf", "hmmer", "libquantum", "gobmk", "astar"],
    "specfp": ["bwaves", "milc", "lbm", "namd", "soplex", "GemsFDTD"],
    "mediabench": ["jpeg", "adpcm", "gsm", "epic"],
    "cognitive": ["gmm", "dnn"],
}


@dataclass(frozen=True)
class Scale:
    """How much work an experiment does."""

    insts: int = 8_000
    benchmarks_per_suite: int | None = 6  # None = all
    sizes: tuple[int, ...] = RF_SIZES
    seed: int = 1
    seeds: tuple[int, ...] = (1,)  # speedup sweeps average across these
    #: ``PERIOD:WINDOW:WARMUP`` interval-sampling spec, or None for exact
    sampling: str | None = None

    @staticmethod
    def quick() -> "Scale":
        return Scale()

    @staticmethod
    def full() -> "Scale":
        return Scale(insts=40_000, benchmarks_per_suite=None,
                     sizes=(48, 56, 64, 72, 80, 96, 112), seeds=(1, 2, 3))

    @staticmethod
    def from_env() -> "Scale":
        name = os.environ.get("REPRO_SCALE", "").strip() or "quick"
        if name not in ("quick", "full"):
            raise ValueError(f"REPRO_SCALE={name!r} is not 'quick' or 'full'")
        scale = Scale.full() if name == "full" else Scale.quick()
        sampling = os.environ.get("REPRO_SAMPLING", "").strip()
        if sampling:
            from repro.sampling import parse_schedule

            parse_schedule(sampling)  # validate early, fail loudly
            scale = replace(scale, sampling=sampling)
        return scale

    def profiles(self, suite_name: str) -> list[WorkloadProfile]:
        if self.benchmarks_per_suite is None:
            return suite(suite_name)
        names = _QUICK[suite_name][: self.benchmarks_per_suite]
        return [BENCHMARKS[n] for n in names]


def class_sizes(profile: WorkloadProfile, size: int) -> tuple[int, int]:
    """Which register file is under study (paper Section VI-B).

    Integer benchmarks sweep the integer file with an ample fp file and
    vice versa; the decoupled files make the other class irrelevant.
    """
    if profile.fp_frac >= 0.25:
        return 128, size
    return size, 128


def make_config(profile: WorkloadProfile, scheme: str, size: int,
                port_scheme: str = "none") -> MachineConfig:
    """The sweep configuration of one point.

    Returns one shared (frozen) instance per distinct configuration, so
    its memoised canonical JSON and kernel fingerprint are computed once
    per process rather than once per point.
    """
    return _sweep_config(scheme, *class_sizes(profile, size), port_scheme)


@lru_cache(maxsize=1024)
def _sweep_config(scheme: str, int_regs: int, fp_regs: int,
                  port_scheme: str) -> MachineConfig:
    if port_scheme != "none" and scheme == "conventional":
        # equal-area conversion: a port-reduced file's smaller bit cells
        # buy the conventional baseline extra rename registers at the
        # same area budget (repro.area.equal_area).  The sharing scheme
        # already spends its budget on shadow cells and overheads, so it
        # keeps the swept size.
        from repro.area.equal_area import equal_area_regs

        int_regs = equal_area_regs(int_regs, port_scheme, bits=64)
        fp_regs = equal_area_regs(fp_regs, port_scheme, bits=128)
    return MachineConfig(scheme=scheme, int_regs=int_regs, fp_regs=fp_regs,
                         rf_port_scheme=port_scheme, verify_values=False)


@dataclass
class SpeedupRow:
    benchmark: str
    speedups: dict  # size -> proposed IPC / baseline IPC


def enumerate_pair_points(profiles, scale: Scale) -> list[SweepPoint]:
    """The (baseline, proposed) sweep grid as declarative points."""
    return [
        SweepPoint(profile=profile, scheme=scheme, size=size,
                   insts=scale.insts, seed=seed, sampling=scale.sampling)
        for profile in profiles
        for size in scale.sizes
        for seed in scale.seeds
        for scheme in ("conventional", "sharing")
    ]


def sweep_speedups(profiles, scale: Scale, *, jobs: int | None = None,
                   cache=None) -> list[SpeedupRow]:
    """Speedup rows for Figure 10-style sweeps, via the sweep engine.

    ``jobs``/``cache`` are forwarded to
    :func:`repro.harness.parallel.run_points`; the default
    (``jobs=None``, no cache) resolves ``REPRO_JOBS`` and simulates
    in-process, producing bit-identical results to any parallel/cached/
    resumed execution.
    """
    profiles = list(profiles)
    points = enumerate_pair_points(profiles, scale)
    stats = collect_stats(run_points(points, jobs=jobs, cache=cache))
    rows = []
    for profile in profiles:
        speedups = {}
        for size in scale.sizes:
            ratios = []
            for seed in scale.seeds:
                baseline = stats[(profile.name, "conventional", size, seed)]
                proposed = stats[(profile.name, "sharing", size, seed)]
                ratios.append(proposed.ipc / baseline.ipc if baseline.ipc else 1.0)
            speedups[size] = geomean(ratios)
        rows.append(SpeedupRow(profile.name, speedups))
    return rows


def geomean(values) -> float:
    """Geometric mean, accumulated in log space so full-scale sweeps
    (hundreds of ratios) cannot under/overflow a running product."""
    values = list(values)
    if not values:
        return 1.0
    return math.exp(math.fsum(math.log(value) for value in values) / len(values))

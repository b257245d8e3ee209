"""The benchmark's workloads: what each runs, and why it was chosen.

Every workload is one command a user runs, executed as a subprocess of
the driver with at most ``figures_job.JOBS`` worker processes.  The seed
reaches the program only as the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: interval-sampling schedule EXPERIMENTS.md validates to +-3.2% of exact
SAMPLING = "2000:150:100"

#: the long single-stream point: of the SPECint profiles, h264ref's host
#: time varies least with the seed (IQR 4-8% of the median over 10 seeds,
#: against 12% for hmmer), and a single stream cannot average it away
POINT_PROFILE = "h264ref"
POINT_SCHEME = "sharing"
POINT_INSTS = 200_000

#: quick-scale figure grid: 18 workloads x 5 sizes x 2 schemes, 8000 insts
FIGURE_POINTS = 180
FIGURE_LOOKUPS = 540
FIGURE_INSTS = 8_000


@dataclass(frozen=True)
class Workload:
    name: str
    #: "figures" (bench/figures_job.py) or "point" (repro bench PROFILE)
    kind: str
    #: "cold": fresh result/trace/kernel dirs on every rep;
    #: "warm": one set of dirs, filled by an untimed priming run
    caches: str
    sampling: Optional[str] = None
    #: reps per workload in suite mode (no --workload)
    suite_reps: int = 5
    #: reps a --workload run makes even past --seconds
    min_reps: int = 1

    def argv(self, seed: int) -> list[str]:
        """The job's command line after the interpreter."""
        if self.kind == "point":
            return ["-m", "repro", "bench", POINT_PROFILE,
                    "--scheme", POINT_SCHEME, "--insts", str(POINT_INSTS),
                    "--seed", str(seed)]
        argv = ["bench/figures_job.py", "--seed", str(seed)]
        if self.sampling:
            argv += ["--sampling", self.sampling]
        return argv

    @property
    def expected_insts(self) -> int:
        """Committed instructions the job's results must add up to."""
        if self.kind == "point":
            return POINT_INSTS
        return FIGURE_POINTS * FIGURE_INSTS

    def cache_line(self, cold: bool) -> Optional[str]:
        """The result-cache summary the job must print on stderr, run
        against cold or primed caches."""
        if self.kind == "point":
            return None
        misses = FIGURE_POINTS if cold else 0
        return (f"result cache: {FIGURE_LOOKUPS - misses} hit(s), "
                f"{misses} miss(es)")


#: why each was chosen: BENCHMARK.json and README.md
WORKLOADS = (
    Workload("fig-exact-cold", kind="figures", caches="cold"),
    # the median of three reps drops the one that a noisy spell of the
    # host hit; this two-worker job's wall varies more than its CPU time
    Workload("fig-sampled-cold", kind="figures", caches="cold",
             sampling=SAMPLING, min_reps=3),
    # ~0.5 s a rep: enough reps for a median with ten samples beyond it
    Workload("fig-warm", kind="figures", caches="warm", suite_reps=20),
    # single-threaded, so a noisy spell on its core that the speed probe,
    # running on the other core, misses shows in full; two reps at least
    Workload("point-long", kind="point", caches="cold", min_reps=2),
)

BY_NAME = {w.name: w for w in WORKLOADS}

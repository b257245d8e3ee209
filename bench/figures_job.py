"""The paper-figure job with a workload seed.

Prints exactly what ``python -m repro figures headline fig10 fig11
--jobs 2`` prints, through the same public functions, but takes the
workload seed as an argument (the ``figures`` command has no ``--seed``).
With ``--seed 1`` the output is byte-identical to that command.

    PYTHONPATH=src python bench/figures_job.py --seed 1 [--sampling P:W:U]
"""

from __future__ import annotations

import argparse
import sys

#: sweep worker processes: the benchmark host has two cores
JOBS = 2

SUITES = ("specfp", "specint", "media+cog")


def job_scale(seed: int, sampling=None):
    from repro.harness.runner import Scale

    return Scale(seed=seed, seeds=(seed,), sampling=sampling)


def job_points(scale) -> list:
    """Every distinct sweep point the job simulates (Fig. 10's three
    suites; Fig. 11 and the headline reuse a subset of them)."""
    from repro.harness.figures import _suite_profiles
    from repro.harness.runner import enumerate_pair_points

    points = []
    for suite in SUITES:
        points += enumerate_pair_points(_suite_profiles(scale, suite), scale)
    return points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sampling", default=None, metavar="PERIOD:WINDOW:WARMUP")
    args = parser.parse_args(argv)

    from repro.harness import ResultCache, figure10, figure11, headline

    scale = job_scale(args.seed, args.sampling)
    cache = ResultCache()
    # same call order as cmd_figures for "headline fig10 fig11"
    print(figure11(scale, jobs=JOBS, cache=cache).render(), "\n")
    for suite in SUITES:
        print(figure10(suite, scale, jobs=JOBS, cache=cache).render(), "\n")
    print(headline(scale, jobs=JOBS, cache=cache).render())
    print(f"result cache: {cache.hits} hit(s), {cache.misses} miss(es) "
          f"[{cache.root}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

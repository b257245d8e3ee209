"""Experiment harness: regenerates every table and figure of the paper.

Each ``figure*``/``table*`` function runs the required simulations and
returns a structured result object with a ``render()`` method producing
the same rows/series the paper reports.  The benchmark suite
(``benchmarks/``) drives these and asserts the reproduced *shape*; the
``examples/`` scripts show interactive use.

Scale is controlled by :class:`~repro.harness.runner.Scale`: the default
``quick`` scale uses representative benchmark subsets and short runs so
the full harness finishes in minutes; ``Scale.full()`` runs every
benchmark.

Execution goes through the sweep engine: figure grids are enumerated as
declarative :class:`~repro.harness.parallel.SweepPoint` lists and run by
:func:`~repro.harness.parallel.run_points` — optionally fanned out over
worker processes (``jobs``/``REPRO_JOBS``) and memoized in the
persistent :class:`~repro.harness.cache.ResultCache`.
"""

from repro.harness.cache import ResultCache, code_fingerprint, point_key
from repro.harness.parallel import (
    PointResult,
    SweepError,
    SweepPoint,
    resolve_jobs,
    run_points,
)
from repro.harness.runner import (
    Scale,
    enumerate_pair_points,
    sweep_speedups,
)
from repro.harness.figures import (
    figure1,
    figure2,
    figure3,
    figure9,
    figure10,
    figure11,
    figure12,
    figure_ports,
)
from repro.harness.tables import table1, table2_result, table3
from repro.harness.headline import headline

__all__ = [
    "Scale",
    "ResultCache",
    "PointResult",
    "SweepError",
    "SweepPoint",
    "code_fingerprint",
    "point_key",
    "resolve_jobs",
    "run_points",
    "enumerate_pair_points",
    "sweep_speedups",
    "figure1",
    "figure2",
    "figure3",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure_ports",
    "table1",
    "table2_result",
    "table3",
    "headline",
]

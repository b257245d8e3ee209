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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "Scale": ".runner",
    "ResultCache": ".cache",
    "PointResult": ".parallel",
    "SweepError": ".parallel",
    "SweepPoint": ".parallel",
    "code_fingerprint": ".cache",
    "point_key": ".cache",
    "resolve_jobs": ".parallel",
    "run_points": ".parallel",
    "enumerate_pair_points": ".runner",
    "sweep_speedups": ".runner",
    "figure1": ".figures",
    "figure2": ".figures",
    "figure3": ".figures",
    "figure9": ".figures",
    "figure10": ".figures",
    "figure11": ".figures",
    "figure12": ".figures",
    "figure_ports": ".figures",
    "table1": ".tables",
    "table2_result": ".tables",
    "table3": ".tables",
    "headline": ".headline",
})

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

"""Shared configuration for the reproduction benches.

Each bench regenerates one of the paper's tables or figures and asserts
the reproduced *shape* (who wins, orderings, trends) rather than absolute
numbers — the substrate is a simulator with synthetic workloads, not the
authors' gem5 + SPEC testbed (see EXPERIMENTS.md).

Scale: benches default to a trimmed quick scale so the whole suite runs
in minutes; set REPRO_SCALE=full for the full benchmark lists.

Execution: the simulation-heavy benches enumerate their sweep grids
declaratively and run them through the sweep engine — set REPRO_JOBS=N
to fan points out over N worker processes.  Like the CLI, every run uses
the persistent result cache (REPRO_CACHE_DIR), so repeated runs are
served from it; its keys include the code fingerprint.
"""

import os

import pytest

from repro.harness.runner import Scale


@pytest.fixture(scope="session")
def scale() -> Scale:
    if os.environ.get("REPRO_SCALE") == "full":
        return Scale.full()
    return Scale(insts=6_000, benchmarks_per_suite=4, sizes=(48, 64, 96))


@pytest.fixture(scope="session")
def engine() -> dict:
    """Sweep-engine kwargs: jobs from the environment, the default
    result cache."""
    from repro.harness.cache import ResultCache
    from repro.harness.parallel import resolve_jobs

    return {"jobs": resolve_jobs(None), "cache": ResultCache()}


@pytest.fixture(scope="session")
def results_cache() -> dict:
    """Session-wide memo so related benches don't re-simulate."""
    return {}


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

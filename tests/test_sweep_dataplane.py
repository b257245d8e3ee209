"""Sweep data-plane engine tests: warm workers, workload affinity.

These pin the mechanisms behind the sweep data plane — the pre-fork
warm step every fleet worker inherits, the workload-affine dispatch
queue and the workload each worker keeps resident — plus a pytest-level
bit-identity matrix across jobs.  Wall-clock is covered by the
``bench/`` suite.
"""

import gc
import os

import pytest

from repro.codegen import cache as codegen_cache
from repro.codegen.fingerprint import kernel_fingerprint
from repro.harness import cache as cache_mod
from repro.harness import parallel
from repro.harness.parallel import SweepPoint, run_points, simulate_point
from repro.harness.runner import make_config
from repro.workloads.profiles import BENCHMARKS
from repro.workloads.trace_codec import TraceColumns
from tests.util import fresh_trace_memo


def _points(count=3, profile="gsm", scheme="conventional", insts=1500):
    return [SweepPoint(profile=BENCHMARKS[profile], scheme=scheme, size=48,
                       insts=insts, seed=seed + 1)
            for seed in range(count)]


# ----------------------------------------------------------------- affinity
def _mixed_points():
    """Interleaved workloads (profile) and schemes."""
    mk = lambda profile, scheme: SweepPoint(  # noqa: E731
        profile=BENCHMARKS[profile], scheme=scheme, size=48,
        insts=1500, seed=1)
    return [mk("gsm", "sharing"), mk("adpcm", "sharing"),
            mk("gsm", "conventional"), mk("gsm", "sharing"),
            mk("adpcm", "conventional")]


def test_affinity_queue_prefers_same_workload():
    points = _mixed_points()
    gsm = parallel._workload_key(points[0])
    adpcm = parallel._workload_key(points[1])

    queue = parallel._AffinityQueue(points)
    for index in range(5):
        queue.push(index)
    assert len(queue) == 5

    # same workload beats global FIFO order, FIFO within the workload
    assert queue.pop(gsm) == 0
    assert queue.pop(gsm) == 2
    # cold worker avoids workloads other busy workers own
    assert queue.pop(None, owned=frozenset({gsm})) == 1
    # all remaining workloads owned: the largest group, first on a tie
    assert queue.pop(None, owned=frozenset({gsm, adpcm})) == 3
    # the last workload is drained: fall through to what is left
    assert queue.pop(gsm) == 4
    assert queue.pop() is None and len(queue) == 0


def test_affinity_queue_spreads_distinct_workloads():
    points = _mixed_points()
    gsm = parallel._workload_key(points[0])
    adpcm = parallel._workload_key(points[1])

    queue = parallel._AffinityQueue(points)
    for index in range(5):
        queue.push(index)
    # first cold worker takes the largest group (gsm: 3 points)
    index = queue.pop()
    assert parallel._workload_key(points[index]) == gsm
    # second cold worker is steered off the owned workload
    index = queue.pop(None, owned=frozenset({gsm}))
    assert parallel._workload_key(points[index]) == adpcm


# ------------------------------------------------------------- warm workers
def _warm_runner(point):
    """Fleet-worker runner: the point's workload and kernel must be in the
    memos inherited from the parent before it simulates anything."""
    assert parallel._workload_key(point) in cache_mod.TRACE_MEMO, \
        f"{point.label()}: workload not inherited"
    config = make_config(point.profile, point.scheme, point.size,
                         port_scheme=point.port_scheme)
    assert kernel_fingerprint(config) in codegen_cache._KERNEL_MEMO, \
        f"{point.label()}: kernel not inherited"
    return simulate_point(point)


@pytest.mark.parametrize("jobs", [2], ids=["jobs2"])
def test_fleet_workers_start_warm(tmp_path, monkeypatch, jobs):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    points = (_points(2, insts=800) + _points(2, insts=800, scheme="sharing")
              + _points(1, profile="adpcm", insts=800))
    fresh_trace_memo(monkeypatch)
    reference = [r.stats.to_dict() for r in run_points(points, jobs=1)]

    # the parent starts cold: only the pre-fork warm step can fill the
    # memos the workers check
    fresh_trace_memo(monkeypatch)
    monkeypatch.setattr(codegen_cache, "_KERNEL_MEMO", {})
    monkeypatch.setattr(parallel, "_POINT_RUNNER", _warm_runner)
    results = run_points(points, jobs=jobs)
    assert [r.error for r in results] == [None] * len(points)
    assert [r.stats.to_dict() for r in results] == reference


# ------------------------------------------------------ resident workloads
#: (pid, columns id) -> materializations; each forked worker counts in
#: its own copy
_MATERIALIZED: dict = {}


def _decode_once_runner(point):
    """Fleet-worker runner: after the point, the worker has materialized
    each workload at most once, and its inherited heap is frozen."""
    stats = simulate_point(point)
    pid = os.getpid()
    counts = [n for (owner, _), n in _MATERIALIZED.items() if owner == pid]
    assert counts and max(counts) == 1, \
        f"{point.label()}: materializations per workload {counts}"
    assert gc.get_freeze_count() > 0, f"{point.label()}: heap not frozen"
    return stats


@pytest.mark.parametrize("jobs", [2], ids=["jobs2"])
def test_fleet_workers_decode_once(tmp_path, monkeypatch, jobs):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    # several points per workload, workloads interleaved in the grid
    points = [SweepPoint(BENCHMARKS[profile], scheme, 48, 800, seed)
              for seed in (1, 2) for scheme in ("sharing", "conventional")
              for profile in ("gsm", "adpcm")]
    fresh_trace_memo(monkeypatch)
    reference = [r.stats.to_dict() for r in run_points(points, jobs=1)]

    original = vars(TraceColumns)["materialize_range"]

    def counted(self, lo, hi):
        key = (os.getpid(), id(self))
        _MATERIALIZED[key] = _MATERIALIZED.get(key, 0) + 1
        return original(self, lo, hi)

    fresh_trace_memo(monkeypatch)
    _MATERIALIZED.clear()
    monkeypatch.setattr(TraceColumns, "materialize_range", counted)
    monkeypatch.setattr(parallel, "_POINT_RUNNER", _decode_once_runner)
    results = run_points(points, jobs=jobs)
    assert [r.error for r in results] == [None] * len(points)
    assert [r.stats.to_dict() for r in results] == reference


# ------------------------------------------------------- end-to-end identity
@pytest.mark.parametrize("jobs", [2, 1], ids=["dataplane", "binary-serial"])
def test_results_identical_across_data_plane_configs(
        tmp_path, monkeypatch, jobs):
    points = _points(2, insts=800) + _points(2, insts=800, scheme="sharing")

    def run(jobs, subdir):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / subdir))
        fresh_trace_memo(monkeypatch)
        results = run_points(points, jobs=jobs)
        assert all(r.ok for r in results)
        return [r.stats.to_dict() for r in results]

    reference = run(1, "ref")
    assert run(jobs, "case") == reference

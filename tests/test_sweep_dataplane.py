"""Sweep data-plane engine tests: warm workers, workload affinity.

These pin the mechanisms behind the sweep data plane — the pre-fork
warm step every fleet worker inherits, the workload-affine dispatch
queue and the workload each worker keeps resident — plus a pytest-level
bit-identity matrix across jobs.  End-to-end
identity is also covered by ``tools/sweep_smoke.py``; wall-clock by the
``bench/`` suite.
"""

import gc
import os
import time

import pytest

from repro.codegen import cache as codegen_cache
from repro.codegen.fingerprint import kernel_fingerprint
from repro.harness import cache as cache_mod
from repro.harness import parallel
from repro.harness.cache import reset_trace_memo
from repro.harness.parallel import (PointResult, SweepPoint, run_points,
                                    simulate_point)
from repro.harness.runner import make_config
from repro.workloads.profiles import BENCHMARKS
from repro.workloads.trace_codec import TraceColumns


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
        queue.push(index, attempt=0)
    assert len(queue) == 5

    # same workload beats global FIFO order, FIFO within the workload
    assert queue.pop(gsm) == (0, 0)
    assert queue.pop(gsm) == (2, 0)
    # cold worker avoids workloads other busy workers own
    assert queue.pop(None, owned=frozenset({gsm})) == (1, 0)
    # all remaining workloads owned: the largest group, first on a tie
    assert queue.pop(None, owned=frozenset({gsm, adpcm})) == (3, 0)
    # the last workload is drained: fall through to what is left
    assert queue.pop(gsm) == (4, 0)
    assert queue.pop() is None and len(queue) == 0


def test_affinity_queue_spreads_distinct_workloads():
    points = _mixed_points()
    gsm = parallel._workload_key(points[0])
    adpcm = parallel._workload_key(points[1])

    queue = parallel._AffinityQueue(points)
    for index in range(5):
        queue.push(index, attempt=0)
    # first cold worker takes the largest group (gsm: 3 tasks)
    index, _ = queue.pop()
    assert parallel._workload_key(points[index]) == gsm
    # second cold worker is steered off the owned workload
    index, _ = queue.pop(None, owned=frozenset({gsm}))
    assert parallel._workload_key(points[index]) == adpcm


def test_scheduler_core_retries_expires_and_resolves_once():
    points = _mixed_points()[:2]  # gsm/sharing, adpcm/sharing
    finished = []
    core = parallel._Scheduler(points, [0, 1],
                               lambda i, r: finished.append((i, r)),
                               retries=1, retry_delay=0.0)
    first = core.lease("w0", ttl=None)
    second = core.lease("w1", ttl=0.0)  # steered off w0's workload
    assert (first.index, first.attempt, second.index) == (0, 1, 1)
    assert core.lease("w2", ttl=None) is None  # nothing ready

    assert core.expire(time.monotonic()) == [second]  # only bounded leases
    assert core.settle(first, error="crash")  # retry granted
    retry = core.lease("w0", ttl=None)
    assert (retry.index, retry.attempt) == (0, 2)
    huge = "x" * (4 * parallel.ERROR_LIMIT)
    assert not core.settle(retry, error=huge)  # retries spent
    (index, failed), = finished
    assert index == 0 and failed.attempts == 2
    assert len(failed.error) <= parallel.ERROR_LIMIT
    assert not core.leases

    assert not core.resolve(0, PointResult(points[0]))  # first wins
    assert core.resolve(1, PointResult(points[1]))
    assert not core.unresolved and len(finished) == 2


def test_affinity_queue_carries_retry_attempts():
    points = _mixed_points()
    queue = parallel._AffinityQueue(points)
    queue.push(0, attempt=0)
    queue.pop()
    queue.push(0, attempt=1)  # requeued after a timeout
    assert queue.pop() == (0, 1)


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


@pytest.mark.parametrize("jobs,timeout", [(2, None), (1, 300.0)],
                         ids=["jobs2", "jobs1-timeout"])
def test_fleet_workers_start_warm(tmp_path, monkeypatch, jobs, timeout):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(tmp_path / "kernels"))
    monkeypatch.delenv("REPRO_NO_TRACE_CACHE", raising=False)
    points = (_points(2, insts=800) + _points(2, insts=800, scheme="sharing")
              + _points(1, profile="adpcm", insts=800))
    reset_trace_memo()
    reference = [r.stats.to_dict() for r in run_points(points, jobs=1)]

    # the parent starts cold: only the pre-fork warm step can fill the
    # memos the workers check
    reset_trace_memo()
    monkeypatch.setattr(codegen_cache, "_KERNEL_MEMO", {})
    monkeypatch.setattr(parallel, "_POINT_RUNNER", _warm_runner)
    results = run_points(points, jobs=jobs, timeout=timeout)
    assert [r.error for r in results] == [None] * len(points)
    assert [r.stats.to_dict() for r in results] == reference
    reset_trace_memo()


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


@pytest.mark.parametrize("jobs,timeout", [(2, None), (1, 300.0)],
                         ids=["jobs2", "jobs1-timeout"])
def test_fleet_workers_decode_once(tmp_path, monkeypatch, jobs, timeout):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(tmp_path / "kernels"))
    monkeypatch.delenv("REPRO_NO_TRACE_CACHE", raising=False)
    # several points per workload, workloads interleaved in the grid
    points = [SweepPoint(BENCHMARKS[profile], scheme, 48, 800, seed)
              for seed in (1, 2) for scheme in ("sharing", "conventional")
              for profile in ("gsm", "adpcm")]
    reset_trace_memo()
    reference = [r.stats.to_dict() for r in run_points(points, jobs=1)]

    original = vars(TraceColumns)["materialize_range"]

    def counted(self, lo, hi):
        key = (os.getpid(), id(self))
        _MATERIALIZED[key] = _MATERIALIZED.get(key, 0) + 1
        return original(self, lo, hi)

    reset_trace_memo()
    _MATERIALIZED.clear()
    monkeypatch.setattr(TraceColumns, "materialize_range", counted)
    monkeypatch.setattr(parallel, "_POINT_RUNNER", _decode_once_runner)
    results = run_points(points, jobs=jobs, timeout=timeout)
    assert [r.error for r in results] == [None] * len(points)
    assert [r.stats.to_dict() for r in results] == reference
    reset_trace_memo()


# ------------------------------------------------------- end-to-end identity
@pytest.mark.parametrize("jobs", [2, 1], ids=["dataplane", "binary-serial"])
def test_results_identical_across_data_plane_configs(
        tmp_path, monkeypatch, jobs):
    points = _points(2, insts=800) + _points(2, insts=800, scheme="sharing")

    def run(jobs, subdir):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / subdir))
        monkeypatch.delenv("REPRO_NO_TRACE_CACHE", raising=False)
        reset_trace_memo()
        results = run_points(points, jobs=jobs)
        assert all(r.ok for r in results)
        return [r.stats.to_dict() for r in results]

    reference = run(1, "ref")
    assert run(jobs, "case") == reference

"""Sweep data-plane engine tests: affinity, broadcast.

These pin the two mechanisms behind the sweep data plane at the unit
level — the affinity dispatch queue and the shared-memory workload
broadcast lifecycle — plus a pytest-level bit-identity matrix across jobs and
broadcast on/off.  End-to-end identity is also covered by
``tools/sweep_smoke.py``; wall-clock by the ``bench/`` suite.
"""

import os
import time

import pytest

from repro.harness import cache as cache_mod
from repro.harness import parallel
from repro.harness.cache import reset_trace_memo
from repro.harness.parallel import (PointResult, SweepPoint,
                                    WorkloadBroadcast, run_points)
from repro.workloads.profiles import BENCHMARKS


def _points(count=3, profile="gsm", scheme="conventional", insts=1500):
    return [SweepPoint(profile=BENCHMARKS[profile], scheme=scheme, size=48,
                       insts=insts, seed=seed + 1)
            for seed in range(count)]


# ----------------------------------------------------------------- affinity
@pytest.fixture()
def scheme_kernels(monkeypatch):
    """Make the kernel key deterministic (scheme name) for these tests."""
    monkeypatch.setattr(parallel, "_kernel_key", lambda p: p.scheme)


def _mixed_points():
    """Interleaved workloads (profile) and kernels (scheme)."""
    mk = lambda profile, scheme: SweepPoint(  # noqa: E731
        profile=BENCHMARKS[profile], scheme=scheme, size=48,
        insts=1500, seed=1)
    return [mk("gsm", "sharing"), mk("adpcm", "sharing"),
            mk("gsm", "conventional"), mk("gsm", "sharing"),
            mk("adpcm", "conventional")]


def test_affinity_queue_prefers_same_workload_then_kernel(scheme_kernels):
    points = _mixed_points()
    gsm = parallel._workload_key(points[0])
    adpcm = parallel._workload_key(points[1])

    queue = parallel._AffinityQueue(points)
    for index in range(5):
        queue.push(index, attempt=0)
    assert len(queue) == 5

    # exact (workload, kernel) match beats FIFO order
    assert queue.pop(gsm, "conventional") == (2, 0)
    # same workload, kernel gone: stays on the workload (memo hit)
    assert queue.pop(gsm, "conventional") == (0, 0)
    # cold worker avoids workloads other busy workers own
    assert queue.pop(None, None, owned=frozenset({gsm})) == (1, 0)
    # all remaining workloads owned: fall back to the largest group
    assert queue.pop(None, None, owned=frozenset({gsm, adpcm})) == (3, 0)
    assert queue.pop(adpcm, "sharing") == (4, 0)
    assert queue.pop() is None and len(queue) == 0


def test_affinity_queue_spreads_distinct_workloads(scheme_kernels):
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
    index, _ = queue.pop(None, None, owned=frozenset({gsm}))
    assert parallel._workload_key(points[index]) == adpcm


def test_scheduler_core_retries_expires_and_resolves_once(scheme_kernels):
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


def test_affinity_queue_carries_retry_attempts(scheme_kernels):
    points = _mixed_points()
    queue = parallel._AffinityQueue(points)
    queue.push(0, attempt=0)
    queue.pop()
    queue.push(0, attempt=1)  # requeued after a timeout
    assert queue.pop() == (0, 1)


# ---------------------------------------------------------------- broadcast
@pytest.fixture()
def trace_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    for env in (parallel.NO_SHM_ENV, "REPRO_NO_TRACE_CACHE"):
        monkeypatch.delenv(env, raising=False)
    reset_trace_memo()
    yield
    reset_trace_memo()


def test_broadcast_refcounts_and_unlinks(trace_env):
    points = _points(2, insts=800) + _points(2, insts=800, scheme="sharing")
    workloads = {parallel._workload_key(p) for p in points}
    assert len(workloads) == 2  # two seeds, shared across schemes

    broadcast = WorkloadBroadcast()
    try:
        broadcast.publish(points, list(range(len(points))))
        assert set(parallel._SHM_WORKLOADS) == workloads
        assert broadcast.stats()["segments"] == 2
        assert broadcast.published_bytes > 0

        broadcast.release(points[0])  # seed 1 still has a consumer
        assert len(parallel._SHM_WORKLOADS) == 2
        broadcast.release(points[2])  # last seed-1 consumer resolves
        assert len(parallel._SHM_WORKLOADS) == 1
        broadcast.release(points[1])
        broadcast.release(points[3])
        assert not parallel._SHM_WORKLOADS
    finally:
        broadcast.close()
    broadcast.close()  # idempotent
    assert not parallel._SHM_WORKLOADS


def test_attach_seeds_trace_memo_from_segment(trace_env):
    point = _points(1, insts=800)[0]
    broadcast = WorkloadBroadcast()
    try:
        broadcast.publish([point], [0])
        assert len(parallel._SHM_WORKLOADS) == 1
        reset_trace_memo()  # simulate a cold fork-started worker
        parallel._attach_shared_workload(point)
        memo_key = (point.profile, point.insts, point.seed, 50)
        stream = cache_mod.TRACE_MEMO.get(memo_key)
        assert stream is not None
        assert sum(1 for _ in stream) == point.insts
    finally:
        broadcast.close()
    assert not parallel._SHM_WORKLOADS


def test_attach_without_publication_is_a_noop(trace_env):
    point = _points(1, insts=800)[0]
    assert not parallel._SHM_WORKLOADS
    parallel._attach_shared_workload(point)
    memo_key = (point.profile, point.insts, point.seed, 50)
    # falls back to the disk path
    assert cache_mod.TRACE_MEMO.get(memo_key) is None


@pytest.mark.parametrize("env", [parallel.NO_SHM_ENV, "REPRO_NO_TRACE_CACHE"])
def test_kill_switches_disable_publish(trace_env, monkeypatch, env):
    monkeypatch.setenv(env, "1")
    point = _points(1, insts=800)[0]
    broadcast = WorkloadBroadcast()
    broadcast.publish([point], [0])
    assert not parallel._SHM_WORKLOADS
    assert broadcast.stats() == {"segments": 0, "published_bytes": 0}


def _attach_then_hang(point, conn):
    reset_trace_memo()  # a genuinely cold consumer
    parallel._attach_shared_workload(point)
    conn.send("attached")
    import time

    time.sleep(60)  # SIGKILLed long before this returns


def test_broadcast_survives_worker_killed_right_after_attach(trace_env):
    # a worker SIGKILLed in the window between attaching a segment and
    # reading its first instruction must not corrupt the parent's
    # accounting: only the parent owns unlinking, so release + close
    # still retire the segment (and the dead child's half-open handle
    # must not resurrect it)
    import multiprocessing
    import signal

    point = _points(1, insts=800)[0]
    broadcast = WorkloadBroadcast()
    segment_name = None
    try:
        broadcast.publish([point], [0])
        assert len(parallel._SHM_WORKLOADS) == 1
        (segment_name, _size), = parallel._SHM_WORKLOADS.values()

        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(target=_attach_then_hang,
                              args=(point, child_conn), daemon=True)
        process.start()
        child_conn.close()
        assert parent_conn.poll(30), "child never attached"
        assert parent_conn.recv() == "attached"
        os.kill(process.pid, signal.SIGKILL)
        process.join(10)
        parent_conn.close()

        # the point resolves (a kill means requeue-elsewhere, but it
        # resolves exactly once either way): refcount drops to zero and
        # the segment unlinks despite the dead consumer
        broadcast.release(point)
        assert not parallel._SHM_WORKLOADS
    finally:
        broadcast.close()

    from multiprocessing.shared_memory import SharedMemory

    with pytest.raises(FileNotFoundError):
        SharedMemory(name=segment_name)


# ------------------------------------------------------- end-to-end identity
@pytest.mark.parametrize("jobs,shm", [
    (2, True),    # full data plane
    (2, False),   # broadcast off: workers read the trace cache
    (1, True),    # serial: the broadcast never engages
], ids=["dataplane", "binary-noshm", "binary-serial"])
def test_results_identical_across_data_plane_configs(
        tmp_path, monkeypatch, jobs, shm):
    points = _points(2, insts=800) + _points(2, insts=800, scheme="sharing")

    def run(jobs, shm, subdir):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / subdir))
        if shm:
            monkeypatch.delenv(parallel.NO_SHM_ENV, raising=False)
        else:
            monkeypatch.setenv(parallel.NO_SHM_ENV, "1")
        monkeypatch.delenv("REPRO_NO_TRACE_CACHE", raising=False)
        reset_trace_memo()
        results = run_points(points, jobs=jobs)
        assert all(r.ok for r in results)
        return [r.stats.to_dict() for r in results]

    reference = run(1, False, "ref")
    assert run(jobs, shm, "case") == reference
    assert not parallel._SHM_WORKLOADS  # nothing leaked either way

"""Sweep data-plane engine tests: journal appends, affinity, broadcast.

These pin the three mechanisms behind the sweep data plane at the unit
level — the O(1) fsync'd journal append (with bounded compaction), the
affinity dispatch queue, and the shared-memory workload broadcast
lifecycle — plus a pytest-level bit-identity matrix across jobs, codec
format and broadcast on/off.  End-to-end wall-clock is covered by
``tools/sweep_smoke.py`` and ``repro bench sweep``.
"""

import json
import os
import time

import pytest

from repro.harness import cache as cache_mod
from repro.harness import parallel
from repro.harness.cache import reset_trace_memo
from repro.harness.parallel import (PointResult, SweepJournal, SweepPoint,
                                    WorkloadBroadcast, run_points)
from repro.workloads.profiles import BENCHMARKS


class _Stats:
    """Minimal stats stand-in: the journal only calls ``to_dict``."""

    def __init__(self, ipc: float) -> None:
        self._ipc = ipc

    def to_dict(self) -> dict:
        return {"ipc": self._ipc}


def _points(count=3, profile="gsm", scheme="conventional", insts=1500):
    return [SweepPoint(profile=BENCHMARKS[profile], scheme=scheme, size=48,
                       insts=insts, seed=seed + 1)
            for seed in range(count)]


# ------------------------------------------------------------------ journal
def test_record_appends_exactly_one_line(tmp_path):
    journal = SweepJournal(tmp_path / "journal.jsonl", fingerprint="fp")
    points = _points(3)
    snapshots = []
    for n, point in enumerate(points, start=1):
        journal.record(point, _Stats(n * 1.0))
        text = journal.path.read_text()
        assert len(text.splitlines()) == n
        snapshots.append(text)
    # pure appends: every earlier file state is a byte prefix of the next
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert later.startswith(earlier)
    assert len(journal) == 3 and journal.compactions == 0


def test_rerecord_appends_duplicate_and_last_wins(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = SweepJournal(path, fingerprint="fp")
    point = _points(1)[0]
    journal.record(point, _Stats(1.0))
    journal.record(point, _Stats(2.0))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2 and len(journal) == 1
    assert lines[0]["key"] == lines[1]["key"]

    reloaded = SweepJournal(path, fingerprint="fp")
    assert len(reloaded) == 1 and reloaded.skipped_lines == 0
    key = reloaded.key_for_point(point)
    assert reloaded._entries[key]["stats"] == {"ipc": 2.0}  # last line won


def test_duplicates_past_slack_trigger_atomic_compaction(tmp_path, monkeypatch):
    monkeypatch.setattr(SweepJournal, "COMPACT_SLACK", 4)
    path = tmp_path / "journal.jsonl"
    journal = SweepJournal(path, fingerprint="fp")
    point = _points(1)[0]
    for n in range(8):
        journal.record(point, _Stats(float(n)))
    assert journal.compactions == 1
    # the 6th record tripped a rewrite down to one line per live key;
    # records since then appended again, so the file stays bounded by
    # live keys + slack rather than growing one line per record forever
    assert len(journal) == 1
    assert len(path.read_text().splitlines()) == 3  # compacted line + 2
    reloaded = SweepJournal(path, fingerprint="fp")
    key = reloaded.key_for_point(point)
    assert reloaded._entries[key]["stats"] == {"ipc": 7.0}


def test_torn_final_line_is_skipped_on_load(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = SweepJournal(path, fingerprint="fp")
    for point in _points(2):
        journal.record(point, _Stats(1.0))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "torn-by-a-cra')  # no newline, invalid JSON
    reloaded = SweepJournal(path, fingerprint="fp")
    assert len(reloaded) == 2
    assert reloaded.skipped_lines == 1


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
    monkeypatch.setenv("REPRO_TRACE_FORMAT", "binary")
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
        memo_key = (point.profile.name, point.insts, point.seed, 50,
                    "binary")
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
    memo_key = (point.profile.name, point.insts, point.seed, 50, "binary")
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


def test_jsonl_format_disables_publish(trace_env, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_FORMAT", "jsonl")
    point = _points(1, insts=800)[0]
    broadcast = WorkloadBroadcast()
    broadcast.publish([point], [0])
    assert not parallel._SHM_WORKLOADS


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
@pytest.mark.parametrize("jobs,fmt,shm", [
    (2, "binary", True),    # full data plane
    (2, "binary", False),   # binary codec, broadcast off
    (2, "jsonl", False),    # legacy interchange path
    (1, "jsonl", False),    # serial legacy
], ids=["dataplane", "binary-noshm", "legacy-jobs2", "legacy-serial"])
def test_results_identical_across_data_plane_configs(
        tmp_path, monkeypatch, jobs, fmt, shm):
    points = _points(2, insts=800) + _points(2, insts=800, scheme="sharing")

    def run(jobs, fmt, shm, subdir):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / subdir))
        monkeypatch.setenv("REPRO_TRACE_FORMAT", fmt)
        if shm:
            monkeypatch.delenv(parallel.NO_SHM_ENV, raising=False)
        else:
            monkeypatch.setenv(parallel.NO_SHM_ENV, "1")
        monkeypatch.delenv("REPRO_NO_TRACE_CACHE", raising=False)
        reset_trace_memo()
        results = run_points(points, jobs=jobs)
        assert all(r.ok for r in results)
        return [r.stats.to_dict() for r in results]

    reference = run(1, "binary", False, "ref")
    assert run(jobs, fmt, shm, "case") == reference
    assert not parallel._SHM_WORKLOADS  # nothing leaked either way

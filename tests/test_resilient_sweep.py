"""Resilient sweep execution: timeouts, retries, resume from the cache.

Worker behaviour is controlled by monkeypatching
:data:`repro.harness.parallel._POINT_RUNNER`; on Linux the fleet forks
its workers, so the patched runner propagates into children.
Cross-process side effects (crash-once counters) go through files, the
only channel that survives the process boundary.
"""

import os
import time
from pathlib import Path

import pytest

from repro.harness import parallel
from repro.harness.cache import ResultCache, atomic_write_text
from repro.harness.parallel import (PointResult, SweepError,
                                    SweepPoint, collect_stats, run_points)
from repro.workloads.profiles import BENCHMARKS

TINY = dict(size=48, insts=1500)


def _points(count=2, scheme="conventional"):
    profile = BENCHMARKS["gsm"]
    return [SweepPoint(profile=profile, scheme=scheme, seed=seed + 1, **TINY)
            for seed in range(count)]


@pytest.fixture()
def runner(monkeypatch):
    """Patch the point runner; returns a setter."""

    def install(fn):
        monkeypatch.setattr(parallel, "_POINT_RUNNER", fn)

    yield install


# ------------------------------------------------------------- error capture
def test_failure_error_carries_worker_traceback(runner):
    def boom(point):
        raise ValueError(f"injected for {point.seed}")

    runner(boom)
    results = run_points(_points(1), jobs=1)
    assert not results[0].ok
    assert "ValueError: injected for 1" in results[0].error
    assert "Traceback (most recent call last)" in results[0].error
    assert "in boom" in results[0].error  # the failing frame is named


def test_sweep_error_includes_traceback_and_label(runner):
    def boom(point):
        raise RuntimeError("kaput")

    runner(boom)
    results = run_points(_points(1), jobs=1)
    with pytest.raises(SweepError) as excinfo:
        collect_stats(results)
    message = str(excinfo.value)
    assert "gsm/conventional" in message
    assert "RuntimeError: kaput" in message
    assert "Traceback" in message


def test_parallel_failure_also_carries_traceback(runner):
    def boom(point):
        raise ValueError("parallel boom")

    runner(boom)
    results = run_points(_points(3), jobs=2)
    assert all("Traceback" in r.error for r in results)


# ------------------------------------------------------------- retries
def _flaky_runner(marker: Path, fail_times: int):
    """Fails the first ``fail_times`` calls (counted via a file, so the
    count is shared across worker processes), then succeeds."""

    def flaky(point):
        count = int(marker.read_text()) if marker.exists() else 0
        marker.write_text(str(count + 1))
        if count < fail_times:
            raise RuntimeError(f"transient failure #{count}")
        return parallel.simulate_point(point)

    return flaky


def test_serial_retry_recovers_from_transient_failures(tmp_path, runner):
    runner(_flaky_runner(tmp_path / "count", 2))
    baseline = parallel.simulate_point(_points(1)[0])
    results = run_points(_points(1), jobs=1, retries=3, retry_delay=0.01)
    assert results[0].ok
    assert results[0].attempts == 3
    assert results[0].stats.to_dict() == baseline.to_dict()


def test_serial_retry_exhaustion_reports_last_error(tmp_path, runner):
    runner(_flaky_runner(tmp_path / "count", 99))
    results = run_points(_points(1), jobs=1, retries=2, retry_delay=0.01)
    assert not results[0].ok
    assert results[0].attempts == 3  # 1 try + 2 retries
    assert "transient failure" in results[0].error


def test_fleet_retry_recovers_from_transient_failures(tmp_path, runner):
    runner(_flaky_runner(tmp_path / "count", 1))
    baseline = parallel.simulate_point(_points(1)[0])
    results = run_points(_points(1), jobs=2, retries=2, retry_delay=0.01)
    assert results[0].ok
    assert results[0].attempts == 2
    assert results[0].stats.to_dict() == baseline.to_dict()


def test_backoff_is_deterministic_and_grows():
    first = parallel._backoff(0.25, 1, salt=3)
    again = parallel._backoff(0.25, 1, salt=3)
    assert first == again
    assert parallel._backoff(0.25, 3, salt=3) > parallel._backoff(0.25, 1, 3)
    assert parallel._backoff(0.0, 5, salt=1) == 0.0


# ------------------------------------------------------------- timeouts
def test_timeout_kills_straggler_and_reports_failure(runner):
    def hang(point):
        time.sleep(60)

    runner(hang)
    start = time.monotonic()
    results = run_points(_points(2), jobs=2, timeout=0.5, retries=0)
    elapsed = time.monotonic() - start
    assert elapsed < 30  # nowhere near the 60 s sleep
    assert all(not r.ok for r in results)
    assert all("wall-clock" in r.error for r in results)


def test_timeout_retry_succeeds_once_point_runs_fast(tmp_path, runner):
    marker = tmp_path / "slow-once"

    def slow_once(point):
        if not marker.exists():
            marker.write_text("x")
            time.sleep(60)
        return parallel.simulate_point(point)

    runner(slow_once)
    baseline = parallel.simulate_point(_points(1)[0])
    results = run_points(_points(1), jobs=1, timeout=1.0, retries=1,
                         retry_delay=0.01)
    assert results[0].ok
    assert results[0].attempts == 2
    assert results[0].stats.to_dict() == baseline.to_dict()


def test_serial_watchdog_sigalrm_on_main_thread(runner):
    def hang(point):
        time.sleep(60)

    runner(hang)
    collected = {}
    start = time.monotonic()
    parallel._run_serial(_points(1), [0], collected.__setitem__,
                         retries=0, retry_delay=0.01, timeout=0.3)
    assert time.monotonic() - start < 30
    assert not collected[0].ok
    assert "wall-clock budget" in collected[0].error


def test_serial_watchdog_clears_after_fast_point():
    # the itimer must be disarmed once the point returns: a fast point
    # followed by a slow stretch of non-point work must not blow up
    import signal

    collected = {}
    parallel._run_serial(_points(1), [0], collected.__setitem__,
                         retries=0, retry_delay=0.01, timeout=5.0)
    assert collected[0].ok
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.fixture()
def no_fork(monkeypatch):
    """Make every fleet spawn fail as if fork were refused."""
    import multiprocessing

    real = multiprocessing.get_context

    class _NoForkCtx:
        def __init__(self, inner):
            self._inner = inner

        def Pipe(self):
            return self._inner.Pipe()

        def Process(self, *args, **kwargs):
            raise OSError("fork refused (injected)")

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda kind=None: _NoForkCtx(real("fork")))


def test_fleet_spawn_failure_degrades_serial_with_timeout(runner, no_fork):
    # fork refused entirely: the fleet degrades to in-process serial
    # execution and the wall-clock bound must survive the degrade
    def hang(point):
        time.sleep(60)

    runner(hang)
    collected = {}
    start = time.monotonic()
    parallel._run_fleet(_points(1), [0], collected.__setitem__,
                        workers=2, timeout=0.3, retries=0,
                        retry_delay=0.01)
    assert time.monotonic() - start < 30
    assert not collected[0].ok
    assert "wall-clock budget" in collected[0].error


def test_fleet_spawn_failure_off_main_thread_fails_clearly(runner, no_fork):
    # off the main thread the serial degrade has no SIGALRM, so no
    # watchdog is left: the point must fail with a clear error, not run
    # unbounded
    import threading

    calls = []
    runner(lambda point: calls.append(point))
    collected = {}
    worker = threading.Thread(target=lambda: parallel._run_fleet(
        _points(1), [0], collected.__setitem__, workers=1, timeout=5.0,
        retries=0, retry_delay=0.01))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert not calls  # never executed unbounded
    assert not collected[0].ok
    assert "fork was refused" in collected[0].error


# ------------------------------------------------------- bounded errors
def test_bound_error_passthrough_and_none():
    assert parallel._bound_error(None) is None
    assert parallel._bound_error("short message") == "short message"
    exactly = "x" * parallel.ERROR_LIMIT
    assert parallel._bound_error(exactly) == exactly


def test_bound_error_keeps_head_and_tail():
    text = "HEAD!" + "x" * (20 * parallel.ERROR_LIMIT) + "!TAIL"
    bounded = parallel._bound_error(text)
    assert len(bounded) < parallel.ERROR_LIMIT + 64
    assert bounded.startswith("HEAD!")
    assert bounded.endswith("!TAIL")
    assert "characters truncated" in bounded
    assert parallel._bound_error(bounded) == bounded  # idempotent


def test_pathological_failure_message_is_bounded(runner):
    # a repr-of-a-huge-structure exception must reach the PointResult
    # wire-sized, head and tail intact
    def boom(point):
        raise ValueError("A" * 200_000 + "needle-at-the-end")

    runner(boom)
    results = run_points(_points(1), jobs=1)
    error = results[0].error
    assert len(error) < parallel.ERROR_LIMIT + 64
    assert error.startswith("ValueError")
    assert "needle-at-the-end" in error
    assert "characters truncated" in error


# ------------------------------------------------------------- worker death
def test_worker_death_is_requeued_and_recovered(tmp_path, runner):
    marker = tmp_path / "die-once"

    def die_once(point):
        if not marker.exists():
            marker.write_text("x")
            os._exit(17)  # hard exit: no exception, no cleanup
        return parallel.simulate_point(point)

    runner(die_once)
    baseline = parallel.simulate_point(_points(1)[0])
    results = run_points(_points(1), jobs=2, retries=1, retry_delay=0.01)
    assert results[0].ok
    assert results[0].stats.to_dict() == baseline.to_dict()


def test_worker_death_without_retries_fails_the_point(runner):
    def die(point):
        os._exit(17)

    runner(die)
    results = run_points(_points(1), jobs=2, retries=0, timeout=30.0)
    assert not results[0].ok
    assert "died" in results[0].error


def test_worker_death_consumes_one_attempt_on_the_plain_path(runner):
    # no timeout, no retries: a dead worker fails its point (one attempt
    # consumed) while the rest of the sweep runs on respawned workers
    marker = os.getpid()

    def die_on_seed_one(point):
        if point.seed == 1 and os.getpid() != marker:
            os._exit(17)  # only ever in a fleet worker, never in pytest
        return parallel.simulate_point(point)

    runner(die_on_seed_one)
    results = run_points(_points(3), jobs=2)
    assert not results[0].ok and "died" in results[0].error
    assert results[0].attempts == 1
    assert results[1].ok and results[2].ok


# ------------------------------------------------------------- routing
def test_plain_parallel_sweep_runs_the_pipe_fleet(monkeypatch):
    calls = []
    real = parallel._run_fleet

    def spy(points, pending, finish, workers, *args):
        calls.append(workers)
        return real(points, pending, finish, workers, *args)

    monkeypatch.setattr(parallel, "_run_fleet", spy)
    results = run_points(_points(3), jobs=2)
    assert all(r.ok for r in results)
    assert calls == [2]
    run_points(_points(1), jobs=1)  # jobs=1 without a timeout: in-process
    assert calls == [2]


# ------------------------------------------------------------- determinism
def test_fleet_results_bit_identical_to_serial():
    points = _points(3)
    serial = run_points(points, jobs=1)
    fleet = run_points(points, jobs=2, timeout=120.0, retries=2)
    plain = run_points(points, jobs=2)
    for a, b, c in zip(serial, fleet, plain):
        assert a.ok and b.ok and c.ok
        assert a.stats.to_dict() == b.stats.to_dict() == c.stats.to_dict()


# ------------------------------------------------------------- resume
def test_rerun_resumes_from_the_result_cache(tmp_path, runner):
    points = _points(3)
    first = run_points(points[:2], jobs=1, cache=ResultCache(root=tmp_path))
    assert all(r.ok and not r.cached for r in first)

    calls = []

    def counting(point):
        calls.append(point.seed)
        return parallel.simulate_point(point)

    runner(counting)
    resumed = run_points(points, jobs=1, cache=ResultCache(root=tmp_path))
    assert calls == [3]  # only the incomplete point re-simulated
    assert [r.cached for r in resumed] == [True, True, False]
    assert [r.attempts for r in resumed] == [0, 0, 1]
    for a, b in zip(first, resumed):
        assert a.stats.to_dict() == b.stats.to_dict()


@pytest.mark.parametrize("jobs", [1, 2])
def test_cache_entry_is_published_before_progress_fires(tmp_path, jobs):
    # a kill right after a progress report must never lose that point
    points = _points(2)
    cache = ResultCache(root=tmp_path)
    seen = []

    def check(done, total, result):
        key = cache.key_for_point(result.point)
        assert Path(cache._file(key)).is_file()
        seen.append(len(cache))

    run_points(points, jobs=jobs, cache=cache, progress=check)
    assert seen == [1, 2]


@pytest.mark.parametrize("flag", ["journal", "resume"])
@pytest.mark.parametrize("command", [["compare", "gsm"], ["figures", "fig12"]])
def test_cli_rejects_retired_journal_flags(command, flag, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main([*command, f"--{flag}"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["compare", "gsm"], ["figures", "fig12"]])
def test_cli_rejects_retired_fleet_flag(command, capsys):
    from repro.cli import main

    flag = "fleet"
    with pytest.raises(SystemExit) as excinfo:
        main([*command, f"--{flag}", "H:P"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: --{flag} H:P" in capsys.readouterr().err


def test_cli_rejects_retired_fleet_command(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["fleet", "serve", "gsm"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'fleet'" in capsys.readouterr().err


# ------------------------------------------------------------- cache writes
def test_atomic_write_replaces_not_appends(tmp_path):
    target = tmp_path / "x.json"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    assert list(tmp_path.iterdir()) == [target]  # no stray temp files


def test_result_cache_corruption_reads_as_miss_and_unlinks(tmp_path):
    cache = ResultCache(root=tmp_path)
    point = _points(1)[0]
    key = cache.key_for_point(point)
    stats = parallel.simulate_point(point)
    cache.put(key, stats)
    assert cache.get(key) is not None
    path = Path(cache._file(key))
    path.write_text("{torn")
    assert cache.get(key) is None
    assert not path.exists()
    # a second reader racing the unlink sees a plain miss, not an error
    assert cache.get(key) is None

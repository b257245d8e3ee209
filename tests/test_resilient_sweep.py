"""Resilient sweep execution: failure capture, worker death, resume
from the cache.

Worker behaviour is controlled by monkeypatching
:data:`repro.harness.parallel._POINT_RUNNER`; on Linux the fleet forks
its workers, so the patched runner propagates into children.
"""

import os
from pathlib import Path

import pytest

from repro.harness import parallel
from repro.harness.cache import ResultCache, atomic_write_text
from repro.harness.parallel import (SweepError, SweepPoint, collect_stats,
                                    run_points)
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


def test_fleet_spawn_failure_degrades_to_serial(runner, no_fork):
    # fork refused entirely: the fleet runs the points in this process
    pids = []

    def recording(point):
        pids.append(os.getpid())
        return parallel.simulate_point(point)

    runner(recording)
    points = _points(2)
    collected = {}
    parallel._run_fleet(points, [0, 1], collected.__setitem__, workers=2)
    assert pids == [os.getpid()] * 2
    for index, point in enumerate(points):
        assert collected[index].ok
        assert (collected[index].stats.to_dict()
                == parallel.simulate_point(point).to_dict())


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
_PYTEST_PID = os.getpid()


def _die_on_seed_one(point):
    """Hard-exit the worker (no exception, no cleanup) on seed 1; only
    ever in a fleet worker, never in the pytest process."""
    if point.seed == 1 and os.getpid() != _PYTEST_PID:
        os._exit(17)
    return parallel.simulate_point(point)


def test_worker_death_consumes_one_attempt_on_the_plain_path(runner):
    # a point runs once: a dead worker fails the point it was running
    # while the rest of the sweep runs on respawned workers
    runner(_die_on_seed_one)
    results = run_points(_points(3), jobs=2)
    assert not results[0].ok and "died" in results[0].error
    assert results[1].ok and results[2].ok


def test_worker_death_without_retries_fails_the_point(runner):
    # nothing reruns a point: a lone point whose worker dies is failed
    runner(_die_on_seed_one)
    results = run_points(_points(1), jobs=2)
    assert not results[0].ok
    assert "died" in results[0].error


def test_worker_death_is_requeued_and_recovered(tmp_path, runner):
    # the result cache is the recovery path: a rerun against it requeues
    # only the point whose worker died, and gets a clean run's stats
    points = _points(3)
    runner(_die_on_seed_one)
    first = run_points(points, jobs=2, cache=ResultCache(root=tmp_path))
    assert [r.ok for r in first] == [False, True, True]

    calls = []

    def counting(point):
        calls.append(point.seed)
        return parallel.simulate_point(point)

    runner(counting)
    rerun = run_points(points, jobs=1, cache=ResultCache(root=tmp_path))
    assert calls == [1]
    assert [r.cached for r in rerun] == [False, True, True]
    clean = run_points(points, jobs=1)
    for a, b in zip(rerun, clean):
        assert a.ok and a.stats.to_dict() == b.stats.to_dict()


# ------------------------------------------------------------- routing
def test_plain_parallel_sweep_runs_the_pipe_fleet(monkeypatch):
    calls = []
    real = parallel._run_fleet

    def spy(points, pending, finish, workers):
        calls.append(workers)
        return real(points, pending, finish, workers)

    monkeypatch.setattr(parallel, "_run_fleet", spy)
    results = run_points(_points(3), jobs=2)
    assert all(r.ok for r in results)
    assert calls == [2]
    run_points(_points(1), jobs=1)  # jobs=1: in-process
    assert calls == [2]


# ------------------------------------------------------------- determinism
def test_fleet_results_bit_identical_to_serial():
    points = _points(3)
    serial = run_points(points, jobs=1)
    fleet = run_points(points, jobs=2)
    for a, b in zip(serial, fleet):
        assert a.ok and b.ok
        assert a.stats.to_dict() == b.stats.to_dict()


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
    for a, b in zip(first, resumed):
        assert a.stats.to_dict() == b.stats.to_dict()


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


@pytest.mark.parametrize("flag", ["--timeout 5", "--retries 1",
                                  "--retry-delay 0.1"])
@pytest.mark.parametrize("command", [["compare", "gsm"], ["figures", "fig12"]])
def test_cli_rejects_retired_resilience_flags(command, flag, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main([*command, *flag.split()])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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

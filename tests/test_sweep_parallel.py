"""Tests for the parallel sweep engine (repro.harness.parallel)."""

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import (
    PointResult,
    SweepError,
    SweepPoint,
    collect_stats,
    resolve_jobs,
    run_points,
    simulate_point,
)
from repro.harness.runner import Scale, enumerate_pair_points, sweep_speedups
from repro.workloads.profiles import BENCHMARKS

PROFILES = [BENCHMARKS["gsm"], BENCHMARKS["adpcm"]]
TINY = Scale(insts=600, sizes=(48,), seeds=(1,))


def _points():
    return enumerate_pair_points(PROFILES, TINY)


# ------------------------------------------------------------------ jobs resolution
def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == 1  # clamped
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5
    assert resolve_jobs(2) == 2  # explicit argument wins over env
    monkeypatch.setenv("REPRO_JOBS", "banana")
    with pytest.raises(ValueError):
        resolve_jobs(None)


# ------------------------------------------------------------------ enumeration
def test_enumerate_pair_points_shape():
    points = _points()
    assert len(points) == len(PROFILES) * 1 * 1 * 2  # sizes x seeds x schemes
    assert {p.scheme for p in points} == {"conventional", "sharing"}
    assert all(p.insts == TINY.insts for p in points)


# ------------------------------------------------------------------ determinism
def test_jobs1_matches_direct_simulation():
    points = _points()
    results = run_points(points, jobs=1)
    assert all(r.ok and not r.cached for r in results)
    for result in results:
        assert result.stats.to_dict() == simulate_point(result.point).to_dict()


def test_parallel_matches_serial_bit_for_bit():
    points = _points()
    serial = run_points(points, jobs=1)
    parallel = run_points(points, jobs=2)
    for s, p in zip(serial, parallel):
        assert s.point == p.point
        assert s.stats.to_dict() == p.stats.to_dict()


def test_sweep_speedups_serial_vs_parallel():
    serial = sweep_speedups(PROFILES, TINY, jobs=1)
    parallel = sweep_speedups(PROFILES, TINY, jobs=2)
    assert [(r.benchmark, r.speedups) for r in serial] == \
           [(r.benchmark, r.speedups) for r in parallel]


# ------------------------------------------------------------------ error capture
def test_worker_exception_is_per_point_not_fatal():
    bad = SweepPoint(profile=PROFILES[0], scheme="bogus", size=48,
                     insts=300, seed=1)
    good = SweepPoint(profile=PROFILES[0], scheme="sharing", size=48,
                      insts=300, seed=1)
    for jobs in (1, 2):
        results = run_points([bad, good, bad], jobs=jobs)
        assert [r.ok for r in results] == [False, True, False]
        assert "bogus" in results[0].error
        assert results[1].stats.committed == 300

    with pytest.raises(SweepError) as excinfo:
        collect_stats(run_points([bad, good], jobs=1))
    assert "bogus" in str(excinfo.value)
    assert len(excinfo.value.failures) == 1


def test_collect_stats_keys():
    stats = collect_stats(run_points(_points(), jobs=1))
    assert ("gsm", "sharing", 48, 1) in stats
    assert ("adpcm", "conventional", 48, 1) in stats


# ------------------------------------------------------------------ cache integration
@pytest.mark.parametrize("jobs", [1, 2])
def test_warm_run_is_all_hits_and_identical(tmp_path, jobs):
    points = _points()
    cold_cache = ResultCache(tmp_path, fingerprint="fp")
    cold = run_points(points, jobs=jobs, cache=cold_cache)
    assert cold_cache.misses == len(points) and cold_cache.hits == 0
    assert not any(r.cached for r in cold)

    warm_cache = ResultCache(tmp_path, fingerprint="fp")
    warm = run_points(points, jobs=jobs, cache=warm_cache)
    assert warm_cache.hits == len(points) and warm_cache.misses == 0
    assert all(r.cached for r in warm)
    for c, w in zip(cold, warm):
        assert c.stats.to_dict() == w.stats.to_dict()


def test_failed_points_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="fp")
    bad = SweepPoint(profile=PROFILES[0], scheme="bogus", size=48,
                     insts=300, seed=1)
    run_points([bad], jobs=1, cache=cache)
    assert len(cache) == 0


# ------------------------------------------------------------------ progress
def test_progress_callback_fires_per_point():
    seen = []
    results = run_points(_points(), jobs=1,
                         progress=lambda done, total, r: seen.append((done, total)))
    assert seen == [(i + 1, len(results)) for i in range(len(results))]

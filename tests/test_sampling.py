"""Tests for the interval-sampled simulation engine (repro.sampling)."""

import pytest

from repro.harness.cache import ResultCache, TraceStream
from repro.harness.parallel import SweepPoint, run_points
from repro.harness.runner import make_config
from repro.isa.assembler import assemble
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import simulate
from repro.pipeline.stats import SampledStats, SimStats, stats_from_dict
from repro.sampling import (
    DEFAULT_SPEC,
    SamplingSchedule,
    as_schedule,
    parse_schedule,
)
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import BENCHMARKS


def _simulate(name, scheme, size, insts, spec=None, seed=1):
    profile = BENCHMARKS[name]
    config = make_config(profile, scheme, size)
    workload = SyntheticWorkload(profile, total_insts=insts, seed=seed)
    if spec is None:
        return simulate(config, iter(workload))
    # the binary trace a sweep point samples
    return simulate(config, TraceStream(workload.trace_bytes(), insts),
                    max_insts=insts, sampling=spec, sampling_seed=seed)


def _reuse_rate(stats) -> float:
    renamer = stats.renamer_stats
    if renamer is None or not renamer.dest_insts:
        return 0.0
    return renamer.reuses / renamer.dest_insts


# ------------------------------------------------------------------ schedules
def test_parse_schedule():
    schedule = parse_schedule("2000:250:100")
    assert (schedule.period, schedule.window, schedule.warmup) == \
        (2000, 250, 100)
    assert schedule.detail == 350
    assert schedule.fast_forward == 1650
    assert schedule.spec == "2000:250:100"
    parse_schedule(DEFAULT_SPEC)  # the documented default is valid


@pytest.mark.parametrize("spec", [
    "2000:250",        # missing field
    "2000:250:100:1",  # extra field
    "abc:250:100",     # non-integer
    "2000:0:100",      # empty window
    "2000:250:-1",     # negative warmup
    "300:250:100",     # period <= window + warmup: nothing fast-forwarded
])
def test_parse_schedule_rejects(spec):
    with pytest.raises(ValueError):
        parse_schedule(spec)


def test_as_schedule_passthrough():
    schedule = SamplingSchedule(1000, 100, 50, seed=7)
    assert as_schedule(schedule) is schedule
    assert as_schedule("1000:100:50", seed=7) == schedule


def test_window_offsets_deterministic_and_stratified():
    schedule = SamplingSchedule(2000, 250, 100, seed=3)
    offsets = [schedule.window_offset(k) for k in range(20)]
    # pure function of (schedule, seed, k)
    assert offsets == [schedule.window_offset(k) for k in range(20)]
    assert all(0 <= off <= schedule.fast_forward for off in offsets)
    # stratified: periods draw independent offsets, not one fixed stride
    assert len(set(offsets)) > 1
    # seed moves the pattern
    other = SamplingSchedule(2000, 250, 100, seed=4)
    assert offsets != [other.window_offset(k) for k in range(20)]


# ------------------------------------------------------------------ estimates
def test_sampled_stats_shape():
    stats = _simulate("gsm", "sharing", 48, 6000, spec="1500:200:100")
    assert isinstance(stats, SampledStats)
    assert stats.windows >= 2
    assert len(stats.window_ipc) == stats.windows
    assert len(stats.window_reuse_rate) == stats.windows
    assert stats.insts_total == 6000
    assert 0.0 < stats.detail_fraction < 1.0
    assert stats.ci95("ipc") > 0.0
    assert set(stats._METRICS) == {"ipc", "reuse_rate", "alloc_saved_rate",
                                   "shadow_occupancy"}
    assert stats.stderr("ipc") > 0.0
    # SimStats API delegates to the scaled estimate
    assert stats.committed == 6000
    assert stats.ipc > 0.0
    assert "windows" in stats.sampling_report()


# One deterministic pin per figure-grid shape: a Figure 10/11 sharing
# point (namd: specfp), a Figure 10 baseline point (hmmer conventional)
# and a media-suite point at a small register file (gsm).  For a fixed
# (seed, schedule) the estimate is exactly reproducible, so asserting
# the error lies within the reported 95% CI is a stable check, not a
# statistical coin flip.
@pytest.mark.parametrize("name,scheme,size,insts,spec", [
    ("namd", "sharing", 64, 8000, "2000:250:100"),
    ("hmmer", "conventional", 64, 8000, "2000:250:100"),
    ("gsm", "sharing", 48, 6000, "1500:200:100"),
])
def test_sampled_matches_exact_within_ci(name, scheme, size, insts, spec):
    exact = _simulate(name, scheme, size, insts)
    sampled = _simulate(name, scheme, size, insts, spec=spec)
    assert abs(sampled.ipc - exact.ipc) <= sampled.ci95("ipc")
    assert abs(_reuse_rate(sampled) - _reuse_rate(exact)) <= \
        max(sampled.ci95("reuse_rate"), 1e-12)
    # and a hard backstop independent of the CI width
    assert abs(sampled.ipc / exact.ipc - 1.0) < 0.15


def test_exact_path_unchanged_by_sampling_machinery():
    """``sampling=None`` must be bit-identical to a plain simulate call."""
    profile = BENCHMARKS["gsm"]
    config = make_config(profile, "sharing", 48)
    plain = simulate(
        config, iter(SyntheticWorkload(profile, total_insts=3000, seed=1)))
    routed = simulate(
        config, iter(SyntheticWorkload(profile, total_insts=3000, seed=1)),
        sampling=None)
    assert isinstance(plain, SimStats)
    assert plain.to_dict() == routed.to_dict()


_LOOP = """
main: movi x1, 20
      movi x2, 0
loop: add  x2, x2, x1
      subi x1, x1, 1
      bnez x1, loop
      halt
"""


def test_stream_shorter_than_a_period_is_one_exact_window():
    """An uncapped stream shorter than one period is measured whole, not
    fast-forwarded past its end into an all-zero estimate."""
    program = assemble(_LOOP)  # 63 dynamic instructions
    config = MachineConfig(scheme="sharing", verify_values=False)
    exact = simulate(config, program)
    sampled = simulate(config, program, sampling="2000:250:100")
    assert sampled.windows == 1
    assert sampled.insts_total == sampled.insts_sampled == 63
    assert sampled.committed == exact.committed == 63
    assert sampled.cycles == exact.cycles > 0


# ------------------------------------------------------------------ determinism
def _sampled_points():
    return [SweepPoint(profile=BENCHMARKS[name], scheme=scheme, size=48,
                       insts=4000, seed=1, sampling="1000:150:80")
            for name in ("gsm", "adpcm")
            for scheme in ("conventional", "sharing")]


def test_sampled_sweep_jobs1_matches_jobsN():
    serial = run_points(_sampled_points(), jobs=1)
    parallel = run_points(_sampled_points(), jobs=2)
    assert all(r.ok for r in serial) and all(r.ok for r in parallel)
    for s, p in zip(serial, parallel):
        assert isinstance(s.stats, SampledStats)
        assert s.stats.to_dict() == p.stats.to_dict()


def test_sampled_stats_roundtrip_through_cache(tmp_path):
    stats = _simulate("gsm", "sharing", 48, 4000, spec="1000:150:80")
    payload = stats.to_dict()
    assert payload["__sampled__"] is True
    rebuilt = stats_from_dict(payload)
    assert isinstance(rebuilt, SampledStats)
    assert rebuilt.to_dict() == payload

    cache = ResultCache(tmp_path, fingerprint="fp")
    cache.put("k" * 64, stats)
    cached = cache.get("k" * 64)
    assert isinstance(cached, SampledStats)
    assert cached.to_dict() == payload


def test_sampled_and_exact_cache_keys_differ(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="fp")
    profile = BENCHMARKS["gsm"]
    config = make_config(profile, "sharing", 48)
    exact_key = cache.key_for(config, profile, 4000, 1)
    sampled_key = cache.key_for(config, profile, 4000, 1,
                                sampling="1000:150:80")
    assert exact_key != sampled_key
    assert sampled_key != cache.key_for(config, profile, 4000, 1,
                                        sampling="1000:150:81")

    point = SweepPoint(profile=profile, scheme="sharing", size=48,
                       insts=4000, seed=1)
    sampled_point = SweepPoint(profile=profile, scheme="sharing", size=48,
                               insts=4000, seed=1, sampling="1000:150:80")
    assert cache.key_for_point(point) == exact_key
    assert cache.key_for_point(sampled_point) == sampled_key


def test_sampled_sweep_served_from_cache(tmp_path):
    points = _sampled_points()
    cold = ResultCache(tmp_path, fingerprint="fp")
    first = run_points(points, jobs=1, cache=cold)
    assert cold.misses == len(points) and cold.hits == 0

    warm = ResultCache(tmp_path, fingerprint="fp")
    second = run_points(points, jobs=1, cache=warm)
    assert warm.hits == len(points) and warm.misses == 0
    assert all(r.cached for r in second)
    for a, b in zip(first, second):
        assert isinstance(b.stats, SampledStats)
        assert a.stats.to_dict() == b.stats.to_dict()

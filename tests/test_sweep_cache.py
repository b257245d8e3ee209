"""Tests for the persistent sweep result cache (repro.harness.cache)."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache, code_fingerprint, point_key
from repro.harness.parallel import SweepPoint, simulate_point
from repro.harness.runner import Scale, make_config
from repro.pipeline.stats import SimStats
from repro.workloads.profiles import BENCHMARKS

TINY = Scale(insts=800, sizes=(48,))
PROFILE = BENCHMARKS["adpcm"]


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path, fingerprint="testfp")


def _stats() -> SimStats:
    return simulate_point(SweepPoint(PROFILE, "sharing", 48, TINY.insts,
                                     TINY.seed))


# ------------------------------------------------------------------ round trip
def test_simstats_dict_round_trip():
    stats = _stats()
    payload = stats.to_dict()
    # the snapshot must survive JSON (that's the on-disk format)
    restored = SimStats.from_dict(json.loads(json.dumps(payload)))
    assert restored.to_dict() == payload
    assert restored.ipc == stats.ipc
    assert restored.renamer_stats.reuses == stats.renamer_stats.reuses
    assert restored.cache_stats["l1d"].miss_rate == stats.cache_stats["l1d"].miss_rate


# ------------------------------------------------------------------ hit / miss
def test_miss_then_hit(cache):
    config = make_config(PROFILE, "sharing", 48)
    key = cache.key_for(config, PROFILE, TINY.insts, 1)
    assert cache.get(key) is None
    assert (cache.hits, cache.misses) == (0, 1)

    stats = _stats()
    cache.put(key, stats)
    got = cache.get(key)
    assert got is not None
    assert got.to_dict() == stats.to_dict()
    assert (cache.hits, cache.misses) == (1, 1)
    assert len(cache) == 1


def test_key_changes_with_config_fields():
    fp = "testfp"
    config = make_config(PROFILE, "sharing", 48)
    base = point_key(config, PROFILE, 800, 1, fp)
    assert point_key(make_config(PROFILE, "conventional", 48),
                     PROFILE, 800, 1, fp) != base
    assert point_key(make_config(PROFILE, "sharing", 64),
                     PROFILE, 800, 1, fp) != base
    assert point_key(replace(config, rob_size=64), PROFILE, 800, 1, fp) != base
    assert point_key(replace(config, counter_bits=3), PROFILE, 800, 1, fp) != base
    assert point_key(config, BENCHMARKS["gsm"], 800, 1, fp) != base
    assert point_key(config, PROFILE, 801, 1, fp) != base
    assert point_key(config, PROFILE, 800, 2, fp) != base
    # and it is stable for identical inputs
    assert point_key(make_config(PROFILE, "sharing", 48),
                     PROFILE, 800, 1, fp) == base


def test_point_keys_separate_port_schemes(cache):
    def point(scheme, port_scheme="none"):
        return SweepPoint(PROFILE, scheme, 48, 800, 1,
                          port_scheme=port_scheme)

    keys = {cache.key_for_point(point(scheme, ports))
            for scheme in ("conventional", "sharing")
            for ports in ("none", "bypass_filter", "banked_arbiter")}
    assert len(keys) == 6  # a port-reduced point never aliases plain
    # port_scheme="none" keys are unchanged, so existing caches stay warm
    plain = point("conventional")
    assert cache.key_for_point(plain) == cache.key_for(
        make_config(PROFILE, "conventional", 48), PROFILE, 800, 1)


def test_code_fingerprint_invalidates(tmp_path):
    stats = _stats()
    config = make_config(PROFILE, "sharing", 48)

    old = ResultCache(tmp_path, fingerprint="code-v1")
    old.put(old.key_for(config, PROFILE, TINY.insts, 1), stats)

    new = ResultCache(tmp_path, fingerprint="code-v2")
    assert new.get(new.key_for(config, PROFILE, TINY.insts, 1)) is None


def test_fingerprint_is_stable_and_hexish():
    fp = code_fingerprint()
    assert fp == code_fingerprint()
    assert len(fp) == 16
    int(fp, 16)  # raises if not hex


# ------------------------------------------------------------------ robustness
def test_corrupted_entry_is_a_miss_not_a_crash(cache):
    config = make_config(PROFILE, "sharing", 48)
    key = cache.key_for(config, PROFILE, TINY.insts, 1)
    cache.put(key, _stats())

    path = Path(cache._file(key))
    path.write_text("{ not json at all")
    assert cache.get(key) is None
    assert not path.exists()  # corrupt entry dropped

    # wrong schema (valid JSON, bogus fields) is also just a miss
    cache.put(key, _stats())
    path.write_text(json.dumps({"bogus_field": 1}))
    assert cache.get(key) is None


def test_cache_dir_from_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    cache = ResultCache(fingerprint="fp")
    assert str(cache.root) == str(tmp_path / "elsewhere")

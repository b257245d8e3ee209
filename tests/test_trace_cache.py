"""Tests for the on-disk pregenerated-trace cache (repro.harness.cache)."""

import pytest

import repro.harness.cache as cache_mod
from repro.harness.cache import (TraceCache, TraceMemo, TraceStream,
                                 cached_stream)
from repro.harness.runner import make_config
from repro.pipeline.processor import simulate
from repro.workloads.generator import SyntheticWorkload, shared_workload
from repro.workloads.profiles import BENCHMARKS

PROFILE = BENCHMARKS["gsm"]


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    """Each test sees an empty process-local memo, so hits/misses observed
    on the TraceCache reflect the on-disk behaviour under test."""
    monkeypatch.setattr(cache_mod, "TRACE_MEMO", TraceMemo())


def test_cold_generates_warm_hits(tmp_path):
    cache = TraceCache(tmp_path, fingerprint="fp")
    stream = cached_stream(PROFILE, 500, seed=1, cache=cache)
    assert isinstance(stream, TraceStream)
    assert cache.misses == 1 and cache.hits == 0
    assert len(cache) == 1

    cache_mod.TRACE_MEMO.clear()
    warm = cached_stream(PROFILE, 500, seed=1, cache=cache)
    assert cache.hits == 1
    assert [d.pc for d in warm] == [d.pc for d in stream]


def test_distinct_inputs_distinct_entries(tmp_path):
    cache = TraceCache(tmp_path, fingerprint="fp")
    assert cache.key_for(PROFILE, 500, 1) != cache.key_for(PROFILE, 500, 2)
    assert cache.key_for(PROFILE, 500, 1) != cache.key_for(PROFILE, 600, 1)
    assert cache.key_for(PROFILE, 500, 1) != \
        cache.key_for(BENCHMARKS["adpcm"], 500, 1)
    # a changed generator fingerprint (stale trace format) never matches
    stale = TraceCache(tmp_path, fingerprint="other")
    assert stale.key_for(PROFILE, 500, 1) != cache.key_for(PROFILE, 500, 1)


def test_stream_yields_fresh_objects_each_pass(tmp_path):
    cache = TraceCache(tmp_path, fingerprint="fp")
    stream = cached_stream(PROFILE, 300, seed=1, cache=cache)
    first = list(stream)
    second = list(stream)
    assert [d.seq for d in first] == [d.seq for d in second]
    # the pipeline mutates DynInsts in place: passes must not share them
    assert all(a is not b for a, b in zip(first, second))


def test_roundtrip_simulation_is_bit_identical(tmp_path):
    cache = TraceCache(tmp_path, fingerprint="fp")
    config = make_config(PROFILE, "sharing", 48)
    via_trace = simulate(
        config, iter(cached_stream(PROFILE, 2000, seed=1, cache=cache)))
    via_generator = simulate(
        config, iter(SyntheticWorkload(PROFILE, total_insts=2000, seed=1)))
    assert via_trace.to_dict() == via_generator.to_dict()


def test_corrupt_binary_entry_is_a_miss_and_removed(tmp_path):
    cache = TraceCache(tmp_path, fingerprint="fp")
    key = cache.key_for(PROFILE, 400, 1)
    cached_stream(PROFILE, 400, seed=1, cache=cache)
    path = cache._path(key)
    assert path.suffix == ".rtc" and path.is_file()

    path.write_bytes(b"not a trace blob")
    assert cache.get_blob(key) is None
    assert not path.exists()  # corrupt entry evicted

    # regenerating repopulates the entry transparently
    cache_mod.TRACE_MEMO.clear()
    stream = cached_stream(PROFILE, 400, seed=1, cache=cache)
    assert path.is_file()
    assert sum(1 for _ in stream) == 400


def test_truncated_body_is_a_miss(tmp_path):
    cache = TraceCache(tmp_path, fingerprint="fp")
    key = cache.key_for(PROFILE, 100, 1)
    cached_stream(PROFILE, 100, seed=1, cache=cache)
    blob = cache.get_blob(key)
    assert blob is not None

    # a torn write that kept the header but lost part of the payload
    cache.put_blob(key, blob[:len(blob) // 2])
    assert cache.get_blob(key) is None
    assert not cache._path(key).exists()


def test_jsonl_entry_is_neither_served_nor_counted(tmp_path):
    # a gzip JSON-lines file left by an older version of the cache is
    # not a trace-cache entry: the binary entry is generated beside it
    cache = TraceCache(tmp_path, fingerprint="fp")
    key = cache.key_for(PROFILE, 300, 1)
    stale = tmp_path / key[:2] / f"{key}.jsonl.gz"
    stale.parent.mkdir(parents=True)
    stale.write_bytes(b"\x1f\x8b legacy entry")
    assert len(cache) == 0

    stream = cached_stream(PROFILE, 300, seed=1, cache=cache)
    assert isinstance(stream, TraceStream)
    assert cache.hits == 0 and cache.misses == 1
    assert cache._path(key).is_file()
    assert len(cache) == 1


def test_env_kill_switch_bypasses_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_TRACE_CACHE", "1")
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    stream = cached_stream(PROFILE, 200, seed=1)
    assert not isinstance(stream, TraceStream)
    assert stream is shared_workload(PROFILE, 200, 1, 50)
    assert len(TraceCache(tmp_path)) == 0


def test_memo_serves_repeat_lookups_without_disk(tmp_path):
    cache = TraceCache(tmp_path, fingerprint="fp")
    cached_stream(PROFILE, 250, seed=1, cache=cache)
    # second lookup in the same process: memo hit, no new cache traffic
    cached_stream(PROFILE, 250, seed=1, cache=cache)
    assert cache.hits + cache.misses == 1
    assert cache_mod.TRACE_MEMO.hits == 1
    assert cache_mod.TRACE_MEMO.misses == 1


def test_memo_is_a_bounded_lru():
    memo = TraceMemo(limit=2)
    memo.put(("a",), "A")
    memo.put(("b",), "B")
    assert memo.get(("a",)) == "A"  # refresh "a": now "b" is the LRU tail
    memo.put(("c",), "C")
    assert ("b",) not in memo and ("a",) in memo and ("c",) in memo
    assert len(memo) == 2
    assert memo.stats()["hits"] == 1

    assert TraceMemo().limit == TraceMemo.DEFAULT_LIMIT
    with pytest.raises(ValueError):
        TraceMemo(limit=-1)


def test_memo_limit_zero_disables(monkeypatch, tmp_path):
    monkeypatch.setattr(cache_mod, "TRACE_MEMO", TraceMemo(limit=0))
    cache = TraceCache(tmp_path, fingerprint="fp")
    cached_stream(PROFILE, 250, seed=1, cache=cache)
    cached_stream(PROFILE, 250, seed=1, cache=cache)
    assert len(cache_mod.TRACE_MEMO) == 0
    assert cache.hits == 1  # every lookup goes to disk

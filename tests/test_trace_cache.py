"""Tests for the on-disk pregenerated-trace cache (repro.harness.cache)."""

from pathlib import Path

import pytest

import repro.harness.cache as cache_mod
from repro.harness.cache import (TRACE_MEMO_LIMIT, TraceCache, TraceMemo,
                                 TraceStream, cached_stream)
from repro.harness.runner import make_config
from repro.pipeline.processor import simulate
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import BENCHMARKS
from tests.util import fresh_trace_memo

PROFILE = BENCHMARKS["gsm"]


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    """Each test sees an empty process-local memo, so hits/misses observed
    on the TraceCache reflect the on-disk behaviour under test."""
    fresh_trace_memo(monkeypatch)


def test_cold_generates_warm_hits(tmp_path, monkeypatch):
    cache = TraceCache(tmp_path, fingerprint="fp")
    stream = cached_stream(PROFILE, 500, seed=1, cache=cache)
    assert isinstance(stream, TraceStream)
    assert cache.misses == 1 and cache.hits == 0
    assert len(cache) == 1

    fresh_trace_memo(monkeypatch)
    warm = cached_stream(PROFILE, 500, seed=1, cache=cache)
    assert cache.hits == 1
    assert [d.pc for d in warm] == [d.pc for d in stream]


def test_cold_path_builds_no_instruction_objects(tmp_path, monkeypatch):
    """A miss stores the generator's column emitter output: the streaming
    generator never runs, and the stored bytes equal encoding it."""
    from repro.workloads.trace_codec import encode

    expected = encode(list(SyntheticWorkload(PROFILE, total_insts=700,
                                             seed=3)))

    def no_objects(self):
        raise AssertionError("cold cached_stream iterated the generator")

    monkeypatch.setattr(SyntheticWorkload, "__iter__", no_objects)
    cache = TraceCache(tmp_path, fingerprint="fp")
    stream = cached_stream(PROFILE, 700, seed=3, cache=cache)
    assert cache.misses == 1
    assert stream.blob == expected
    assert cache.get_blob(cache.key_for(PROFILE, 700, 3)) == expected


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


def test_corrupt_binary_entry_is_a_miss_and_removed(tmp_path, monkeypatch):
    cache = TraceCache(tmp_path, fingerprint="fp")
    key = cache.key_for(PROFILE, 400, 1)
    cached_stream(PROFILE, 400, seed=1, cache=cache)
    path = Path(cache._file(key))
    assert path.suffix == ".rtc" and path.is_file()

    path.write_bytes(b"not a trace blob")
    assert cache.get_blob(key) is None
    assert not path.exists()  # corrupt entry evicted

    # regenerating repopulates the entry transparently
    fresh_trace_memo(monkeypatch)
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
    assert not Path(cache._file(key)).exists()


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
    assert Path(cache._file(key)).is_file()
    assert len(cache) == 1


def test_memo_serves_repeat_lookups_without_disk(tmp_path):
    cache = TraceCache(tmp_path, fingerprint="fp")
    cached_stream(PROFILE, 250, seed=1, cache=cache)
    # second lookup in the same process: memo hit, no new cache traffic
    cached_stream(PROFILE, 250, seed=1, cache=cache)
    assert cache.hits + cache.misses == 1
    assert cache_mod.TRACE_MEMO.hits == 1
    assert cache_mod.TRACE_MEMO.misses == 1


def test_memo_is_a_bounded_lru():
    memo = TraceMemo()
    for index in range(TRACE_MEMO_LIMIT):
        memo.put((index,), index)
    assert memo.get((0,)) == 0  # refresh 0: now 1 is the LRU tail
    memo.put(("new",), "N")
    assert (1,) not in memo and (0,) in memo and ("new",) in memo
    assert len(memo) == TRACE_MEMO_LIMIT
    assert memo.hits == 1

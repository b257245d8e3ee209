"""Kernel cache lifecycle: fingerprints, corruption, fallback.

The correctness of the generated kernels themselves is covered by the
naive-loop oracle in ``test_event_loop.py`` and by ``tools/kernel_smoke``;
this module tests the machinery *around* them — that the fingerprint
tracks everything a kernel depends on, that a damaged cache entry is a
miss rather than a crash, and that every refusal really lands on the
naive loop — plus an oracle for the inlined register-pressure check,
L1-D/TLB/prefetcher path and operand verification, whose delegated cold
paths the streams below are sized to reach.
"""

import dataclasses

import pytest

from repro.codegen import (
    KernelCache,
    default_kernel_dir,
    kernel_fingerprint,
    kernel_for,
    load_kernel,
)
from repro.codegen.cache import _KERNEL_MEMO
from repro.core.conventional import ConventionalRenamer
from repro.isa.executor import FunctionalExecutor
from repro.mem import Cache, MemoryHierarchy
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import IterSource, Processor, VerificationError
from repro.verify.fuzz import generate
from repro.workloads import BENCHMARKS
from repro.workloads.generator import SyntheticWorkload


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test gets a private on-disk cache and a cold memo."""
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(tmp_path / "kernels"))
    saved = dict(_KERNEL_MEMO)
    _KERNEL_MEMO.clear()
    yield
    _KERNEL_MEMO.clear()
    _KERNEL_MEMO.update(saved)


def _processor(scheme="conventional", seed=0, **kwargs):
    program = generate(seed, size=30).build()
    executor = FunctionalExecutor(program)
    config = MachineConfig(scheme=scheme, verify_values=False)
    return Processor(config, IterSource(executor.run(10_000_000)), **kwargs)


# --------------------------------------------------------------------------
# fingerprints

def test_fingerprint_is_stable():
    config = MachineConfig(scheme="sharing")
    assert kernel_fingerprint(config) == kernel_fingerprint(config)
    same = MachineConfig(scheme="sharing")
    assert kernel_fingerprint(config) == kernel_fingerprint(same)


def test_fingerprint_tracks_scheme_and_config():
    base = MachineConfig(scheme="sharing")
    keys = {
        kernel_fingerprint(base),
        kernel_fingerprint(MachineConfig(scheme="conventional")),
        kernel_fingerprint(MachineConfig(scheme="sharing", rob_size=64)),
        kernel_fingerprint(MachineConfig(scheme="sharing", fetch_width=2)),
    }
    assert len(keys) == 4, "scheme/config changes must change the kernel key"


def test_fingerprint_tracks_simulator_source(monkeypatch):
    """Editing any repro module must invalidate cached kernels.

    The fingerprint is memoised per config instance (the source cannot
    change under a running process — ``code_fingerprint`` is itself
    cached for the process lifetime), so the post-edit world is a fresh
    process: simulate it with a fresh config instance.
    """
    import repro.harness.cache as harness_cache

    before = kernel_fingerprint(MachineConfig(scheme="sharing"))
    monkeypatch.setattr(harness_cache, "code_fingerprint",
                        lambda: "deadbeef-post-edit")
    assert kernel_fingerprint(MachineConfig(scheme="sharing")) != before


# --------------------------------------------------------------------------
# on-disk cache

def test_kernel_cache_roundtrip():
    config = MachineConfig(scheme="conventional", verify_values=False)
    cache = KernelCache()
    load_kernel(config, cache=cache)
    key = kernel_fingerprint(config)
    assert cache.path_for(key).exists()
    assert cache.misses == 1 and cache.hits == 0

    # a fresh process (cleared memo) reloads from disk without regenerating
    _KERNEL_MEMO.clear()
    reload_cache = KernelCache()
    load_kernel(config, cache=reload_cache)
    assert reload_cache.hits == 1 and reload_cache.misses == 0


@pytest.mark.parametrize("damage", ["truncate", "no_header", "garbage"])
def test_corrupt_cache_entry_is_a_miss(damage):
    config = MachineConfig(scheme="conventional", verify_values=False)
    cache = KernelCache()
    load_kernel(config, cache=cache)
    key = kernel_fingerprint(config)
    path = cache.path_for(key)
    text = path.read_text()
    if damage == "truncate":
        path.write_text(text[: len(text) // 2])
    elif damage == "no_header":
        path.write_text("\n".join(text.splitlines()[1:]) + "\n")
    else:
        path.write_text("this is not python {{{\n")

    _KERNEL_MEMO.clear()
    fresh = KernelCache()
    assert fresh.load_source(key) is None, "damaged entry must read as a miss"
    assert not path.exists(), "damaged entry must be unlinked"

    # and load_kernel regenerates a working kernel straight through it
    _KERNEL_MEMO.clear()
    fn = load_kernel(config, cache=KernelCache())
    assert callable(fn)
    assert path.exists()


def test_default_kernel_dir_honours_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(tmp_path / "elsewhere"))
    assert default_kernel_dir() == tmp_path / "elsewhere"


# --------------------------------------------------------------------------
# fallback

def test_kernel_runs_by_default():
    proc = _processor("sharing")
    proc.run()
    assert proc.loop_used == "generated"


def test_subclassed_renamer_falls_back_to_event_loop():
    """A renamer subclass may override hooks the kernel inlined away, so
    exact-class dispatch must refuse it even though isinstance passes."""

    class InstrumentedRenamer(ConventionalRenamer):
        pass

    config = MachineConfig(scheme="conventional", verify_values=False)
    assert kernel_for(config, ConventionalRenamer) is not None
    assert kernel_for(config, InstrumentedRenamer) is None


def test_monkeypatched_renamer_method_falls_back_to_event_loop():
    """Instance-level method overrides (oracle tests spy on .write) would
    be bypassed by the kernel's inlined fast paths, so the exact-class
    check extends to the instance __dict__."""
    proc = _processor("conventional")
    real_write = proc.renamer.write
    seen = []

    def spy(tag, value):
        seen.append(tag)
        real_write(tag, value)

    proc.renamer.write = spy
    proc.run()
    assert proc.loop_used == "naive"
    assert seen, "the patched write hook must actually be exercised"


def test_foreign_memory_hierarchy_falls_back_to_event_loop():
    """The kernel inlines data_access and reads TLB/L1-D/prefetcher
    internals, so only the exact stock classes may run it."""

    class CountingHierarchy(MemoryHierarchy):
        pass

    class CountingCache(Cache):
        pass

    config = MachineConfig(scheme="conventional", verify_values=False)
    assert kernel_for(config, ConventionalRenamer,
                      config.make_hierarchy()) is not None
    assert kernel_for(config, ConventionalRenamer,
                      CountingHierarchy(config.hierarchy)) is None
    subclassed_l1d = config.make_hierarchy()
    subclassed_l1d.l1d = CountingCache("L1D", 32 * 1024, 2, 64, 1)
    assert kernel_for(config, ConventionalRenamer, subclassed_l1d) is None
    patched_tlb = config.make_hierarchy()
    patched_tlb.tlb.translate = lambda addr: 0
    assert kernel_for(config, ConventionalRenamer, patched_tlb) is None

    proc = _processor("conventional",
                      hierarchy=CountingHierarchy(config.hierarchy))
    proc.run()
    assert proc.loop_used == "naive"


def test_generator_error_propagates(monkeypatch):
    """Only the documented reasons fall back to the naive loop; a broken
    generator must fail the simulation instead of silently slowing it
    down."""
    import repro.codegen.cache as codegen_cache
    from repro.pipeline.processor import simulate

    def broken(config):
        raise AssertionError("generator bug")

    monkeypatch.setattr(codegen_cache, "generate_kernel_source", broken)
    program = generate(0, size=30).build()
    config = MachineConfig(scheme="sharing", verify_values=False)
    with pytest.raises(AssertionError, match="generator bug"):
        simulate(config, program)


def test_generated_matches_event_without_hooks():
    """No on_commit hook => the kernel takes its inline fast-commit path;
    it must still report identical stats to the naive loop."""
    naive = _processor("sharing", seed=3, naive_loop=True)
    naive.run()
    gen = _processor("sharing", seed=3)
    gen.run()
    assert gen.loop_used == "generated"
    assert dataclasses.asdict(gen.stats) == dataclasses.asdict(naive.stats)
    assert gen.renamer.stats == naive.renamer.stats


# --------------------------------------------------------------------------
# inlined hot paths vs the naive loop

def _synthetic(profile, insts=3000):
    return list(SyntheticWorkload(BENCHMARKS[profile], total_insts=insts,
                                  seed=1))


def _full_snapshot(proc):
    renamer = proc.renamer
    snap = {
        "stats": proc.stats.to_dict(),
        "renamer": dataclasses.asdict(renamer.stats),
        "prefetches_issued": proc.hierarchy.prefetcher.issued,
        "arch": proc.architectural_state(),
    }
    if hasattr(renamer, "single_use"):
        snap["single_use"] = dataclasses.asdict(renamer.single_use.stats)
        snap["predictor"] = dataclasses.asdict(renamer.predictor.stats)
    return snap


@pytest.mark.parametrize("profile", ["mcf", "h264ref"])
@pytest.mark.parametrize("verify", [True, False])
@pytest.mark.parametrize("scheme,counter_bits", [
    ("sharing", 2), ("hinted", 2), ("conventional", 2),
    # 1-bit counters saturate below the shadow-cell count, so the
    # pressure check's counter bound is the one that denies reuse
    ("sharing", 1),
])
def test_inlined_paths_match_event_loop(scheme, counter_bits, verify,
                                        profile):
    """No hooks (the inline store-commit path runs) and 48 registers (the
    register-pressure check runs): full SimStats, cache stats, renamer and
    predictor stats and prefetch counts must match the naive loop, and the
    stream must reach every delegated cold path."""
    config = MachineConfig(scheme=scheme, int_regs=48, verify_values=verify,
                           counter_bits=counter_bits)
    naive = Processor(config, IterSource(iter(_synthetic(profile))),
                      naive_loop=True)
    naive.run()
    gen = Processor(config, IterSource(iter(_synthetic(profile))))
    gen.run()
    assert gen.loop_used == "generated"
    assert _full_snapshot(gen) == _full_snapshot(naive)

    caches = naive.stats.cache_stats
    assert naive.stats.rename_stall_regs > 0
    assert caches["tlb"].misses > 0
    assert caches["l1d"].writebacks > 0
    assert caches["l1d"].prefetch_hits > 0


def _corrupted_stream():
    stream = _synthetic("h264ref", insts=1500)
    victim = next(d for d in stream[500:]
                  if d.src_values and d.src_values[0] is not None)
    bad = list(victim.src_values)
    bad[0] = bad[0] + 1
    victim.src_values = tuple(bad)
    return stream


def test_operand_mismatch_raises_same_error_in_both_loops():
    """The inline verification delegates a mismatch to
    Processor._verify_operands, so the error and its message are shared."""
    config = MachineConfig(scheme="sharing", verify_values=True)
    messages = {}
    for naive_loop in (True, False):
        proc = Processor(config, IterSource(iter(_corrupted_stream())),
                         naive_loop=naive_loop)
        with pytest.raises(VerificationError) as info:
            proc.run()
        messages[proc.loop_used] = str(info.value)
    assert set(messages) == {"naive", "generated"}
    assert "operand mismatch" in messages["generated"]
    assert messages["generated"] == messages["naive"]

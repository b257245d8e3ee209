"""Kernel memo lifecycle: fingerprints, no disk writes, loop choice.

The correctness of the generated kernels themselves is covered by the
naive-loop oracle in ``test_event_loop.py``; this module tests the
machinery *around* them — that the fingerprint tracks everything a
kernel depends on, that loading a kernel writes nothing to disk, and
that the scheme alone picks the loop — plus an oracle for
the inlined register-pressure check, L1-D/TLB/prefetcher path, read-port
grants and operand verification, whose delegated cold paths the streams
below are sized to reach.
"""

import dataclasses

import pytest

from repro.codegen import (
    KernelUnavailable,
    generate_kernel_source,
    kernel_fingerprint,
    kernel_for,
)
from repro.codegen.cache import _KERNEL_MEMO
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import IterSource, Processor, VerificationError
from repro.verify.fuzz import generate
from repro.workloads import BENCHMARKS
from repro.workloads.generator import SyntheticWorkload

from tests.util import program_processor


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts with a cold kernel memo."""
    saved = dict(_KERNEL_MEMO)
    _KERNEL_MEMO.clear()
    yield
    _KERNEL_MEMO.clear()
    _KERNEL_MEMO.update(saved)


def _processor(scheme="conventional", seed=0, **kwargs):
    config = MachineConfig(scheme=scheme, verify_values=False)
    return program_processor(config, generate(seed, size=30).build(),
                             **kwargs)


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


# --------------------------------------------------------------------------
# no disk cache

def test_kernel_load_writes_nothing(tmp_path, monkeypatch):
    """Kernels are compiled in memory only: generating, compiling and
    running one leaves the cache roots untouched."""
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    proc = _processor("sharing")
    proc.run()
    assert proc.loop_used == "generated"
    assert kernel_fingerprint(proc.config) in _KERNEL_MEMO
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# loop choice

def test_kernel_runs_by_default():
    proc = _processor("sharing")
    proc.run()
    assert proc.loop_used == "generated"


@pytest.mark.parametrize("scheme", ["conventional", "sharing"])
def test_flattened_scheme_runs_generated_kernel(scheme):
    """Conventional and sharing get a generated kernel from the config
    alone."""
    proc = _processor(scheme)
    assert kernel_for(proc.config) is not None
    proc.run()
    assert proc.loop_used == "generated"
    assert proc.stats.committed > 0


@pytest.mark.parametrize("scheme", ["early", "hinted"])
def test_unflattened_scheme_runs_on_naive_loop(scheme):
    """The generator cannot flatten early and hinted, so they run the
    naive loop."""
    proc = _processor(scheme)
    assert kernel_for(proc.config) is None
    with pytest.raises(KernelUnavailable, match=scheme):
        generate_kernel_source(proc.config)
    proc.run()
    assert proc.loop_used == "naive"
    assert proc.stats.committed > 0


def test_generator_error_propagates(monkeypatch):
    """A broken generator must fail the simulation instead of silently
    slowing it down on the naive loop."""
    import repro.codegen.cache as codegen_cache
    from repro.pipeline.processor import simulate

    def broken(config):
        raise AssertionError("generator bug")

    monkeypatch.setattr(codegen_cache, "generate_kernel_source", broken)
    program = generate(0, size=30).build()
    config = MachineConfig(scheme="sharing", verify_values=False)
    with pytest.raises(AssertionError, match="generator bug"):
        simulate(config, program)


def test_generated_matches_naive_without_hooks():
    """No on_commit hook => the kernel takes its inline fast-commit path;
    in the default configuration it must still report identical stats to
    the naive loop."""
    for scheme in ("sharing", "conventional"):
        naive = _processor(scheme, seed=3, naive_loop=True)
        naive.run()
        gen = _processor(scheme, seed=3)
        gen.run()
        assert gen.loop_used == "generated"
        assert dataclasses.asdict(gen.stats) == \
            dataclasses.asdict(naive.stats), scheme
        assert gen.renamer.stats == naive.renamer.stats, scheme


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
@pytest.mark.parametrize("scheme,counter_bits,port_scheme", [
    pytest.param("sharing", 2, "none", id="sharing-2"),
    pytest.param("conventional", 2, "none", id="conventional-2"),
    # 1-bit counters saturate below the shadow-cell count, so the
    # pressure check's counter bound is the one that denies reuse
    pytest.param("sharing", 1, "none", id="sharing-1"),
    # the read-port schemes: the kernel's port bookkeeping around the
    # delegated issue stage (repro.core.read_ports)
    ("conventional", 2, "bypass_filter"),
    ("conventional", 2, "banked_arbiter"),
])
def test_inlined_paths_match_event_loop(scheme, counter_bits, port_scheme,
                                        verify, profile):
    """No hooks (the inline store-commit path runs) and 48 registers (the
    register-pressure check runs): full SimStats, cache stats, renamer and
    predictor stats, prefetch counts and every instruction's pipeline
    record (rename tags, stage and commit cycles) must match the naive
    loop, and the stream must reach every delegated cold path."""
    config = MachineConfig(scheme=scheme, int_regs=48, verify_values=verify,
                           counter_bits=counter_bits,
                           rf_port_scheme=port_scheme)
    naive_stream, gen_stream = _synthetic(profile), _synthetic(profile)
    naive = Processor(config, IterSource(iter(naive_stream)),
                      naive_loop=True)
    naive.run()
    gen = Processor(config, IterSource(iter(gen_stream)))
    gen.run()
    assert gen.loop_used == "generated"
    assert _full_snapshot(gen) == _full_snapshot(naive)
    assert gen_stream == naive_stream

    stats = naive.stats
    caches = stats.cache_stats
    assert stats.rename_stall_regs > 0
    assert caches["tlb"].misses > 0
    assert caches["l1d"].writebacks > 0
    assert caches["l1d"].prefetch_hits > 0
    if port_scheme == "bypass_filter":
        assert stats.rf_port_reads > 0 and stats.rf_bypass_reads > 0
    elif port_scheme == "banked_arbiter":
        assert stats.rf_port_reads > 0 and stats.rf_delay_cycles > 0


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

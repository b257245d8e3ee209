"""Cycle-loop oracle: generated kernel vs naive loop.

The code-generated per-config kernels (per-stage early-outs, quiet-cycle
skipping, bulk idle accounting) must be an *invisible* optimisation: for
any program, scheme and variant, the SimStats and the
committed-instruction stream must be bit-for-bit identical to the naive
one-iteration-per-cycle reference loop (``naive_loop=True``).  An
``on_cycle`` hook must see the same state on both loops too: a skip
stops at the hook's next boundary, which then runs as a real cycle.
"""

import dataclasses
import itertools

import pytest

from repro.isa.executor import FirstTouchFaults
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import IterSource, Processor
from repro.verify.fuzz import generate, fuzz_config, schemes_for
from repro.workloads import BENCHMARKS
from repro.workloads.generator import SyntheticWorkload

from tests.util import program_processor

PROGRAMS = 20
SIZE = 40

#: the schemes the generator flattens; the rest always run the naive loop
KERNEL_SCHEMES = ("conventional", "sharing")


def _record(seen):
    """An ``on_cycle`` hook that records what it sees."""
    def hook(proc):
        stats = proc.stats
        seen.append((proc.cycle, stats.committed, stats.occupancy_samples,
                     stats.rob_occupancy_sum, stats.iq_occupancy_sum,
                     stats.free_regs_sum))
    return hook


def _run(program, cfg, variant, loop: str, hook_interval=None):
    commits = []
    fault_model = FirstTouchFaults() if variant == "faults" else None
    seen = []
    hooks = {}
    if hook_interval is not None:
        hooks = {"on_cycle": _record(seen), "on_cycle_interval": hook_interval}
    processor = program_processor(
        cfg, program, fault_model,
        on_commit=lambda _p, d: commits.append((d.seq, d.pc, d.op, d.result)),
        naive_loop=(loop == "naive"),
        **hooks,
    )
    processor.run()
    assert processor.loop_used in ("naive", "generated")
    # the hook's calls ride with the commit stream: both must match
    return dataclasses.asdict(processor.stats), (commits, seen), processor


def _check_loops(program, cfg, variant, context, hook_interval=None):
    """Run ``cfg`` on the default loop; a kernel scheme must match the
    naive loop, any other scheme must have run the naive loop itself."""
    stats, commits, proc = _run(program, cfg, variant, "generated",
                                hook_interval)
    if cfg.scheme not in KERNEL_SCHEMES:
        assert proc.loop_used == "naive", (
            f"expected the naive loop for {context}")
        return
    assert proc.loop_used == "generated", (
        f"expected the generated loop for {context}")
    naive_stats, naive_commits, _ = _run(program, cfg, variant, "naive",
                                         hook_interval)
    assert stats == naive_stats, (
        f"generated-kernel SimStats diverged for {context}")
    assert commits == naive_commits, (
        f"generated-kernel commit stream or hook calls diverged "
        f"for {context}")
    # the skip counter is observability, not simulated state
    assert proc.cycles_skipped >= 0
    assert "cycles_skipped" not in stats


@pytest.mark.parametrize("seed", range(PROGRAMS))
def test_loops_match(seed):
    """Each program runs unhooked and with a recording hook every 7
    cycles; the hook's calls must match across the loops too."""
    fuzz_program = generate(seed, size=SIZE)
    program = fuzz_program.build()
    for scheme, hook_interval in itertools.product(
            schemes_for(fuzz_program.variant), (None, 7)):
        cfg = fuzz_config(scheme, fuzz_program.variant)
        context = (f"seed={seed} scheme={scheme} hook={hook_interval} "
                   f"variant={fuzz_program.variant}")
        _check_loops(program, cfg, fuzz_program.variant, context,
                     hook_interval)


@pytest.mark.parametrize("loop", ["generated"])
def test_hook_every_cycle_skips_nothing(loop):
    """A hook at interval 1 makes every cycle a hook boundary, so the
    kernel skips none (the fault campaign relies on this)."""
    fuzz_program = generate(0, size=SIZE)
    cfg = fuzz_config("sharing", fuzz_program.variant)
    _, (_, seen), proc = _run(fuzz_program.build(), cfg,
                              fuzz_program.variant, loop, hook_interval=1)
    assert proc.loop_used == loop
    assert proc.cycles_skipped == 0
    assert [call[0] for call in seen] == list(range(1, proc.cycle + 1))
    # unhooked, the same run does skip: the hook is what stops it
    _, _, unhooked = _run(fuzz_program.build(), cfg,
                          fuzz_program.variant, loop)
    assert unhooked.cycles_skipped > 0


def test_hooked_run_skips_busy_stall_windows():
    """Rename stalled behind mcf's long misses: a hooked run bulk-skips
    those busy-stall windows up to the hook's next boundary, as it does
    quiet windows.  A hook that never fires leaves the unhooked skip
    count.  A hook every 50 cycles that also flips a PRT Read bit, so
    that what rename sees changes under a stall, sees what it sees on the
    naive loop."""
    config = MachineConfig(scheme="sharing", int_regs=48,
                           verify_values=False)

    def run(naive_loop=False, hook_interval=None):
        seen = []
        record = _record(seen)
        flips = itertools.count()

        def hook(proc):
            record(proc)
            domain = next(iter(proc.renamer.domains.values()))
            phys = next(flips) % domain.config.total_regs
            domain.prt.corrupt(phys, read_bit=not domain.prt[phys].read_bit)

        hooks = {}
        if hook_interval is not None:
            hooks = {"on_cycle": hook, "on_cycle_interval": hook_interval}
        stream = SyntheticWorkload(BENCHMARKS["mcf"], total_insts=3000,
                                   seed=1)
        proc = Processor(config, IterSource(iter(list(stream))),
                         naive_loop=naive_loop, **hooks)
        proc.run()
        return proc, seen

    unhooked, _ = run()
    never_fires, _ = run(hook_interval=10**9)
    assert never_fires.cycles_skipped == unhooked.cycles_skipped > 0
    hooked, seen = run(hook_interval=50)
    naive, naive_seen = run(naive_loop=True, hook_interval=50)
    assert hooked.loop_used == "generated"
    assert seen == naive_seen
    assert dataclasses.asdict(hooked.stats) == dataclasses.asdict(naive.stats)


@pytest.mark.parametrize("port_scheme", ["bypass_filter", "banked_arbiter"])
@pytest.mark.parametrize("seed", range(4))
def test_loops_match_port_schemes(seed, port_scheme):
    """The identity holds with a read-port scheme active, for every
    renamer scheme the variant admits (repro.core.read_ports)."""
    fuzz_program = generate(seed, size=SIZE)
    program = fuzz_program.build()
    for scheme in schemes_for(fuzz_program.variant):
        cfg = fuzz_config(scheme, fuzz_program.variant, port_scheme)
        context = (f"seed={seed} scheme={scheme} ports={port_scheme} "
                   f"variant={fuzz_program.variant}")
        _check_loops(program, cfg, fuzz_program.variant, context)


def test_shared_kernel_matches_at_every_size(monkeypatch):
    """Sharing configs that differ only in register-file size generate
    one source, so the second size runs the kernel compiled for the first
    (repro.codegen.cache).  The kernel reads the sizes at run time and
    must match the naive loop at both: this program stalls on free
    registers at 48 and never at 96, so the two runs take different
    paths through the one kernel."""
    import repro.codegen.cache as codegen_cache

    monkeypatch.setattr(codegen_cache, "_KERNEL_MEMO", {})
    monkeypatch.setattr(codegen_cache, "_SOURCE_MEMO", {})
    fuzz_program = generate(4, size=SIZE)
    program = fuzz_program.build()
    small = fuzz_config("sharing", fuzz_program.variant)
    large = dataclasses.replace(small, int_regs=96, fp_regs=96)
    stalls = []
    for cfg in (small, large):
        stats, commits, proc = _run(program, cfg, fuzz_program.variant,
                                    "generated")
        naive_stats, naive_commits, naive = _run(
            program, cfg, fuzz_program.variant, "naive")
        assert proc.loop_used == "generated"
        assert stats == naive_stats, f"SimStats diverged at {cfg.int_regs}"
        assert commits == naive_commits, \
            f"commit stream diverged at {cfg.int_regs}"
        assert proc.renamer.stats == naive.renamer.stats, \
            f"renamer stats diverged at {cfg.int_regs}"
        stalls.append(stats["rename_stall_regs"])
    assert len(codegen_cache._KERNEL_MEMO) == 2
    assert len(codegen_cache._SOURCE_MEMO) == 1, "the sizes must share a kernel"
    assert stalls[0] > 0 == stalls[1]

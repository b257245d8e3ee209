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

from repro.isa.executor import FirstTouchFaults, FunctionalExecutor
from repro.pipeline.processor import IterSource, Processor
from repro.verify.fuzz import generate, fuzz_config, schemes_for

PROGRAMS = 20
SIZE = 40


@pytest.fixture(scope="module")
def kernel_dir(tmp_path_factory):
    """One kernel cache for the whole module: each distinct fuzz config
    generates its kernel once, later tests reload it from disk."""
    return tmp_path_factory.mktemp("kernels")


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
    fault_model = FirstTouchFaults(limit=4) if variant == "faults" else None
    executor = FunctionalExecutor(program, fault_model=fault_model)
    seen = []
    hooks = {}
    if hook_interval is not None:
        hooks = {"on_cycle": _record(seen), "on_cycle_interval": hook_interval}
    processor = Processor(
        cfg, IterSource(executor.run(10_000_000)),
        fault_model=fault_model,
        on_commit=lambda _p, d: commits.append((d.seq, d.pc, d.op, d.result)),
        naive_loop=(loop == "naive"),
        **hooks,
    )
    processor.run()
    assert processor.loop_used in ("naive", "generated")
    # the hook's calls ride with the commit stream: both must match
    return dataclasses.asdict(processor.stats), (commits, seen), processor


@pytest.mark.parametrize("seed", range(PROGRAMS))
def test_loops_match(seed, kernel_dir, monkeypatch):
    """Each program runs unhooked and with a recording hook every 7
    cycles; the hook's calls must match across the loops too."""
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(kernel_dir))
    fuzz_program = generate(seed, size=SIZE)
    program = fuzz_program.build()
    for scheme, hook_interval in itertools.product(
            schemes_for(fuzz_program.variant), (None, 7)):
        cfg = fuzz_config(scheme, fuzz_program.variant)
        naive_stats, naive_commits, _ = _run(
            program, cfg, fuzz_program.variant, "naive", hook_interval)
        generated_stats, generated_commits, gen_proc = _run(
            program, cfg, fuzz_program.variant, "generated", hook_interval)
        context = (f"seed={seed} scheme={scheme} hook={hook_interval} "
                   f"variant={fuzz_program.variant}")
        assert gen_proc.loop_used == "generated", (
            f"kernel did not engage for {context}")
        assert generated_stats == naive_stats, (
            f"generated-kernel SimStats diverged for {context}")
        assert generated_commits == naive_commits, (
            f"generated-kernel commit stream or hook calls diverged "
            f"for {context}")
        # the skip counter is observability, not simulated state
        assert gen_proc.cycles_skipped >= 0
        assert "cycles_skipped" not in generated_stats


@pytest.mark.parametrize("loop", ["generated"])
def test_hook_every_cycle_skips_nothing(loop, kernel_dir, monkeypatch):
    """A hook at interval 1 makes every cycle a hook boundary, so the
    kernel skips none (the fault campaign relies on this)."""
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(kernel_dir))
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


@pytest.mark.parametrize("port_scheme", ["bypass_filter", "banked_arbiter"])
@pytest.mark.parametrize("seed", range(4))
def test_loops_match_port_schemes(seed, port_scheme, kernel_dir, monkeypatch):
    """The identity holds with a read-port scheme active, for every
    renamer scheme the variant admits (repro.core.read_ports)."""
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(kernel_dir))
    fuzz_program = generate(seed, size=SIZE)
    program = fuzz_program.build()
    for scheme in schemes_for(fuzz_program.variant):
        cfg = fuzz_config(scheme, fuzz_program.variant, port_scheme)
        naive_stats, naive_commits, _ = _run(
            program, cfg, fuzz_program.variant, loop="naive")
        generated_stats, generated_commits, gen_proc = _run(
            program, cfg, fuzz_program.variant, loop="generated")
        context = (f"seed={seed} scheme={scheme} ports={port_scheme} "
                   f"variant={fuzz_program.variant}")
        assert gen_proc.loop_used == "generated", (
            f"kernel did not engage for {context}")
        assert generated_stats == naive_stats, (
            f"generated-kernel SimStats diverged for {context}")
        assert generated_commits == naive_commits, (
            f"generated-kernel commit stream diverged for {context}")

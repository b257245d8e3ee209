"""Microbenchmarks: directed behaviour checks for the renaming schemes."""

import pytest

from repro import MachineConfig, simulate
from repro.isa.executor import run_to_completion
from repro.workloads.microbench import MICROBENCHES, build

from tests.util import program_processor


def run(name, scheme, size=48, **cfg):
    program = build(name)
    config = MachineConfig(scheme=scheme, int_regs=size, fp_regs=48, **cfg)
    return simulate(config, program, program_budget=2_000_000)


@pytest.mark.parametrize("name", sorted(MICROBENCHES))
@pytest.mark.parametrize("scheme", ["conventional", "sharing"])
def test_microbenches_correct(name, scheme):
    program = build(name)
    reference = run_to_completion(program, 2_000_000)
    config = MachineConfig(scheme=scheme, int_regs=48, fp_regs=48)
    processor = program_processor(config, program)
    processor.run()
    int_regs, _ = processor.architectural_state()
    assert int_regs == reference.int_regs


def test_chain_ladder_reuses_heavily():
    stats = run("chain_ladder", "sharing")
    renamer = stats.renamer_stats
    assert renamer.reuse_fraction > 0.4
    assert renamer.reuses_guaranteed > renamer.reuses_predicted


def test_register_hog_cannot_reuse():
    stats = run("register_hog", "sharing")
    assert stats.renamer_stats.reuse_fraction < 0.15


def test_producer_consumer_uses_predicted_path():
    stats = run("producer_consumer", "sharing")
    renamer = stats.renamer_stats
    assert renamer.reuses_predicted > 0


def test_chain_ladder_sharing_beats_baseline_when_starved():
    base = run("chain_ladder", "conventional", size=40)
    prop = run("chain_ladder", "sharing", size=40)
    assert prop.ipc >= base.ipc * 0.98


def test_pointer_chase_insensitive_to_scheme():
    """Serialised loads: neither scheme can help; they must tie."""
    base = run("pointer_chase", "conventional")
    prop = run("pointer_chase", "sharing")
    assert prop.ipc == pytest.approx(base.ipc, rel=0.03)


def test_branch_storm_mispredicts():
    stats = run("branch_storm", "conventional")
    assert stats.branch_stats.mispredicted > 50


def test_wide_independent_bounded_by_width():
    stats = run("wide_independent", "conventional", size=128)
    assert stats.ipc <= 3.0  # rename width bounds
    assert stats.ipc > 1.2  # but plenty of ILP flows

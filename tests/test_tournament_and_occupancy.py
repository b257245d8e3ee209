"""Tests for the tournament predictor and occupancy statistics."""

from repro import MachineConfig, assemble, simulate
from repro.pipeline.config import IQ_SIZE
from repro.frontend.branch_predictor import (
    BimodalPredictor,
    GSharePredictor,
    TournamentPredictor,
)
from repro.workloads import BENCHMARKS, SyntheticWorkload


def train(predictor, pattern, pc=7, repeats=50):
    correct = 0
    total = 0
    for _ in range(repeats):
        for taken in pattern:
            if total > len(pattern) * 10:  # skip warmup
                correct += predictor.predict(pc) == taken
            predictor.update(pc, taken)
            total += 1
    return correct / max(1, total - len(pattern) * 10 - 1)


def test_tournament_matches_bimodal_on_biased_branch():
    pattern = [True] * 15 + [False]
    tournament = train(TournamentPredictor(), pattern)
    bimodal = train(BimodalPredictor(), pattern)
    assert tournament >= bimodal - 0.05


def test_tournament_matches_gshare_on_patterned_branch():
    pattern = [True, False, True, True, False, False]
    tournament = train(TournamentPredictor(), pattern)
    gshare = train(GSharePredictor(), pattern)
    assert tournament >= gshare - 0.05


def test_tournament_beats_each_component_on_mixed_workload():
    """Chooser routes each branch to its better component."""
    biased = [True] * 15 + [False]
    patterned = [True, False] * 8

    def mixed_accuracy(make):
        predictor = make()
        correct, total = 0, 0
        for round_index in range(60):
            for index, taken in enumerate(zip(biased, patterned)):
                for pc, t in ((11, taken[0]), (22, taken[1])):
                    if round_index > 10:
                        correct += predictor.predict(pc) == t
                        total += 1
                    predictor.update(pc, t)
        return correct / total

    tournament = mixed_accuracy(lambda: TournamentPredictor())
    bimodal = mixed_accuracy(lambda: BimodalPredictor())
    assert tournament >= bimodal - 0.02


def test_branch_unit_accepts_tournament():
    config = MachineConfig(branch_predictor="tournament")
    program = assemble(
        """
        main: movi x1, 100
        loop: subi x1, x1, 1
              bnez x1, loop
              halt
        """
    )
    stats = simulate(config, program)
    assert stats.branch_stats.accuracy > 0.8


def test_occupancy_statistics_collected():
    workload = SyntheticWorkload(BENCHMARKS["hmmer"], total_insts=3000)
    config = MachineConfig(scheme="conventional", int_regs=48, fp_regs=48,
                           verify_values=False)
    stats = simulate(config, iter(workload))
    assert stats.occupancy_samples == stats.cycles
    assert 0 < stats.avg_rob_occupancy <= config.rob_size
    assert 0 < stats.avg_iq_occupancy <= IQ_SIZE
    assert 0 <= stats.avg_free_regs <= 48


def test_sharing_keeps_more_registers_free():
    """Under pressure the sharing scheme's reuse leaves more registers
    free on average (or packs a larger window into the same file)."""
    results = {}
    for scheme in ("conventional", "sharing"):
        workload = SyntheticWorkload(BENCHMARKS["bwaves"], total_insts=5000)
        config = MachineConfig(scheme=scheme, int_regs=128, fp_regs=56,
                               verify_values=False)
        results[scheme] = simulate(config, iter(workload))
    # the proposed scheme sustains at least the baseline's window
    assert results["sharing"].avg_rob_occupancy >= \
        results["conventional"].avg_rob_occupancy * 0.9

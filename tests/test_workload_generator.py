"""Tests for the statistical workload generator and benchmark profiles."""

import pytest

from repro import MachineConfig, simulate
from repro.analysis import analyze_chains, analyze_stream
from repro.isa.opcodes import Op, OPCODES
from repro.workloads import (
    BENCHMARKS,
    COGNITIVE,
    MEDIABENCH,
    SPECFP,
    SPECINT,
    SyntheticWorkload,
    suite,
)


def stream(name, n=8000, seed=1):
    return list(SyntheticWorkload(BENCHMARKS[name], total_insts=n, seed=seed))


def test_suites_complete():
    assert len(SPECINT) == 12
    assert len(SPECFP) == 17
    assert len(MEDIABENCH) == 8
    assert len(COGNITIVE) == 2
    assert len(BENCHMARKS) == 39
    assert {p.suite for p in BENCHMARKS.values()} == {
        "specint", "specfp", "mediabench", "cognitive",
    }
    assert suite("specint") == [p for p in BENCHMARKS.values() if p.suite == "specint"]
    with pytest.raises(ValueError):
        suite("bogus")


def test_deterministic_for_seed():
    a = stream("gcc", n=2000, seed=5)
    b = stream("gcc", n=2000, seed=5)
    assert [(d.pc, d.op, d.dest, d.srcs, d.taken) for d in a] == [
        (d.pc, d.op, d.dest, d.srcs, d.taken) for d in b
    ]


def test_different_seeds_differ():
    a = stream("gcc", n=2000, seed=1)
    b = stream("gcc", n=2000, seed=2)
    assert [(d.op, d.taken) for d in a] != [(d.op, d.taken) for d in b]


def test_requested_length():
    insts = stream("mcf", n=3456)
    assert len(insts) == 3456
    assert [d.seq for d in insts] == list(range(3456))


def test_stable_pcs_form_loop_bodies():
    profile = BENCHMARKS["hmmer"]
    insts = stream("hmmer", n=8000)
    pcs = {d.pc for d in insts}
    static_size = profile.n_bodies * profile.body_size + 1  # + wrap jump
    assert len(pcs) <= static_size
    # each pc repeats many times (the predictor-visible stability property)
    assert len(insts) / len(pcs) > 10


def test_op_mix_tracks_profile():
    profile = BENCHMARKS["bwaves"]
    insts = stream("bwaves", n=20000)
    loads = sum(1 for d in insts if d.info.is_load) / len(insts)
    stores = sum(1 for d in insts if d.info.is_store) / len(insts)
    branches = sum(1 for d in insts if d.info.is_branch) / len(insts)
    fp = sum(1 for d in insts if d.dest is not None and d.dest.cls.value == 1)
    assert loads == pytest.approx(profile.load_frac, abs=0.06)
    assert stores == pytest.approx(profile.store_frac, abs=0.05)
    # structural back-edges add to the profile's hammock branches
    assert profile.branch_frac - 0.03 < branches < profile.branch_frac + 0.06
    assert fp > 0


def test_token_dataflow_consistency():
    """Each consumed operand's recorded value equals its producer's token."""
    insts = stream("gcc", n=5000)
    current: dict = {}
    for dyn in insts:
        for src, value in zip(dyn.srcs, dyn.src_values):
            assert value == current.get(src, 0)
        if dyn.dest is not None:
            current[dyn.dest] = dyn.result


def test_branches_have_consistent_control_flow():
    insts = stream("perlbench", n=5000)
    for prev, cur in zip(insts, insts[1:]):
        assert cur.pc == prev.next_pc


def test_memory_addresses_within_working_set():
    profile = BENCHMARKS["mcf"]
    insts = stream("mcf", n=5000)
    addrs = [d.mem_addr for d in insts if d.mem_addr is not None]
    assert addrs
    assert all(0 <= a < profile.working_set for a in addrs)


def test_specfp_single_use_exceeds_specint():
    """The paper's headline motivation (Figures 1-2): SPECfp > 50%,
    SPECint > 30% single-consumer instructions."""
    fp_names = ("bwaves", "lbm", "milc", "cactusADM")
    int_names = ("gcc", "mcf", "gobmk", "sjeng")
    fp = [analyze_stream(iter(SyntheticWorkload(BENCHMARKS[n], 10000)))
          for n in fp_names]
    si = [analyze_stream(iter(SyntheticWorkload(BENCHMARKS[n], 10000)))
          for n in int_names]
    fp_avg = sum(a.single_consumer_inst_fraction for a in fp) / len(fp)
    int_avg = sum(a.single_consumer_inst_fraction for a in si) / len(si)
    assert fp_avg > 0.45
    assert int_avg > 0.30
    assert fp_avg > int_avg


def test_figure3_ordering_one_ge_two_ge_three():
    for name in ("gcc", "bwaves", "jpeg", "gmm"):
        chains = analyze_chains(iter(SyntheticWorkload(BENCHMARKS[name], 10000)))
        series = chains.figure3_series()
        assert series["one"] > series["two"] > series["three"]


def test_workload_runs_through_pipeline_with_verification():
    workload = SyntheticWorkload(BENCHMARKS["astar"], total_insts=4000)
    stats = simulate(MachineConfig(scheme="sharing", int_regs=64, fp_regs=64),
                     iter(workload))
    assert stats.committed == 4000
    assert stats.renamer_stats.reuses > 0


def test_mispredict_rate_reflects_hard_branches():
    easy = SyntheticWorkload(BENCHMARKS["lbm"], total_insts=10000)
    hard = SyntheticWorkload(BENCHMARKS["gobmk"], total_insts=10000)
    cfg = MachineConfig(scheme="conventional", int_regs=96, fp_regs=96)
    easy_stats = simulate(cfg, iter(easy))
    cfg = MachineConfig(scheme="conventional", int_regs=96, fp_regs=96)
    hard_stats = simulate(cfg, iter(hard))
    assert hard_stats.branch_stats.accuracy < easy_stats.branch_stats.accuracy


# ---------------------------------------------------------------- shared workloads
def _stream_signature(workload):
    return [
        (d.seq, d.pc, d.op, d.dest, d.srcs, d.src_values, d.result,
         d.mem_addr, d.taken, d.target, d.next_pc)
        for d in workload
    ]


def test_workload_iterations_are_identical():
    """``__iter__`` reseeds from scratch: every iteration of one workload
    yields the identical dynamic stream."""
    workload = SyntheticWorkload(BENCHMARKS["gcc"], total_insts=2000, seed=1)
    first = _stream_signature(workload)
    second = _stream_signature(workload)
    assert first == second


def test_conventional_sharing_pair_sees_identical_streams():
    """The two sides of a conventional/sharing pair must observe the same
    instructions: same PCs, values and branch outcomes (commit counts prove
    the stream length; the verified src_values prove the dataflow)."""
    from repro.harness.parallel import SweepPoint, simulate_point

    baseline, proposed = (
        simulate_point(SweepPoint(BENCHMARKS["adpcm"], scheme, 48, 800, 1))
        for scheme in ("conventional", "sharing"))
    assert baseline.committed == proposed.committed == 800
    assert baseline.loads == proposed.loads
    assert baseline.stores == proposed.stores
    assert baseline.branch_stats.branches == proposed.branch_stats.branches


# ---------------------------------------------------------------- column emitter
def _emitter_cases(profile):
    """(seed, insts, body_iters) cases for one profile: the figure
    configuration, streams ending mid-body, and one ending exactly at the
    wrap jump after the last body (``body_iters=1`` reaches it fastest)."""
    round_len = profile.n_bodies * profile.body_size
    cases = [(1, 8000, 50)]
    for seed in (1, 2, 7):
        cases += [(seed, round_len + 1, 1),            # ends at the wrap jump
                  (seed, 3 * (round_len + 1) + 37, 1),  # mid-body, 3 wraps in
                  (seed, 2 * profile.body_size + 41, 50)]  # mid-body
    return cases


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_trace_bytes_equal_encoded_stream(name):
    """The column emitter and the streaming generator are two loops over
    one skeleton; any reordered RNG draw or misplaced column value breaks
    the byte identity."""
    from repro.workloads.trace_codec import encode

    profile = BENCHMARKS[name]
    for seed, insts, body_iters in _emitter_cases(profile):
        workload = SyntheticWorkload(profile, total_insts=insts, seed=seed,
                                     body_iters=body_iters)
        insts_list = list(workload)
        assert len(insts_list) == insts
        if insts == profile.n_bodies * profile.body_size + 1:
            assert insts_list[-1].op is Op.JMP
        assert workload.trace_bytes() == encode(insts_list), \
            (name, seed, insts, body_iters)


def test_trace_bytes_of_an_empty_stream():
    from repro.workloads.trace_codec import encode

    workload = SyntheticWorkload(BENCHMARKS["gsm"], total_insts=0)
    assert workload.trace_bytes() == encode([])

"""Kernels: functional correctness and end-to-end pipeline verification."""

import math

import pytest

from repro import MachineConfig, simulate
from repro.isa.executor import run_to_completion
from repro.isa.program import DATA_BASE
from repro.workloads.kernels import (
    KERNELS,
    adpcm_kernel,
    dct_kernel,
    dnn_kernel,
    fir_kernel,
    gmm_kernel,
    matmul_kernel,
)

from tests.util import program_processor


def mem_words(mem, addr, count):
    return [mem.load(addr + 8 * i) for i in range(count)]


def test_gmm_scores_match_reference():
    k = gmm_kernel(n_components=3, dim=4)
    state = run_to_completion(k.program, 200_000)
    exp = k.expected(state.mem)
    base = DATA_BASE + (4 + 2 * 3 * 4) * 8
    scores = mem_words(state.mem, base, 3)
    for got, want in zip(scores, exp["scores"]):
        assert got == pytest.approx(want, rel=1e-9)
    assert state.mem.load(base + 3 * 8) == pytest.approx(exp["best"], rel=1e-9)


def test_dnn_layer_matches_reference():
    k = dnn_kernel(in_dim=6, out_dim=4)
    state = run_to_completion(k.program, 200_000)
    exp = k.expected(state.mem)
    base = DATA_BASE + (6 + 4 * 6 + 4) * 8
    y = mem_words(state.mem, base, 4)
    for got, want in zip(y, exp["y"]):
        assert got == pytest.approx(want, rel=1e-9)
    assert all(v >= 0 for v in y)  # ReLU output


def test_dct_matches_reference():
    k = dct_kernel(n=4)
    state = run_to_completion(k.program, 200_000)
    exp = k.expected(state.mem)
    base = DATA_BASE + (4 + 16) * 8
    out = mem_words(state.mem, base, 4)
    for got, want in zip(out, exp["out"]):
        assert got == pytest.approx(want, rel=1e-9)


def test_fir_matches_reference():
    k = fir_kernel(n=16, taps=4)
    state = run_to_completion(k.program, 200_000)
    exp = k.expected(state.mem)
    base = DATA_BASE + (16 + 4 + 4) * 8
    y = mem_words(state.mem, base, 16)
    for got, want in zip(y, exp["y"]):
        assert got == pytest.approx(want, rel=1e-9)


def test_adpcm_matches_reference():
    k = adpcm_kernel(n=64)
    state = run_to_completion(k.program, 500_000)
    exp = k.expected(state.mem)
    base = DATA_BASE + 64 * 8
    codes = mem_words(state.mem, base, 64)
    assert codes == exp["codes"]
    assert state.mem.load(base + 64 * 8) == exp["pred"]


def test_matmul_matches_reference():
    k = matmul_kernel(n=4)
    state = run_to_completion(k.program, 500_000)
    exp = k.expected(state.mem)
    base = DATA_BASE + 2 * 16 * 8
    for i in range(4):
        row = mem_words(state.mem, base + i * 4 * 8, 4)
        for got, want in zip(row, exp["c"][i]):
            assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("scheme", ["conventional", "sharing"])
def test_kernels_through_pipeline(name, scheme):
    """Every kernel runs through the OoO pipeline with operand verification
    and commits the same architectural state as the reference executor."""
    kernel = KERNELS[name]()
    config = MachineConfig(scheme=scheme, int_regs=48, fp_regs=48)
    processor = program_processor(config, kernel.program)
    stats = processor.run()
    reference = run_to_completion(kernel.program, 500_000)
    int_regs, fp_regs = processor.architectural_state()
    assert int_regs == reference.int_regs
    assert fp_regs == reference.fp_regs
    assert stats.committed > 100


def test_sharing_reuses_in_fp_kernels():
    kernel = gmm_kernel()
    config = MachineConfig(scheme="sharing", int_regs=64, fp_regs=64)
    stats = simulate(config, kernel.program)
    assert stats.renamer_stats.reuses > 0
    # the GMM accumulation chain (fadd f1, f1, ...) is a guaranteed-reuse chain
    assert stats.renamer_stats.reuses_guaranteed > 0

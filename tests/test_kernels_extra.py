"""Second-wave kernels: functional correctness + pipeline verification."""

import pytest

from repro import MachineConfig
from repro.isa.executor import run_to_completion
from repro.isa.program import DATA_BASE
from repro.workloads.kernels_extra import (
    EXTRA_KERNELS,
    checksum_kernel,
    haar_kernel,
    histogram_kernel,
    sad_kernel,
    sort_kernel,
)

from tests.util import program_processor


def mem_words(mem, addr, count):
    return [mem.load(addr + 8 * i) for i in range(count)]


def test_sad_finds_best_candidate():
    k = sad_kernel(block=4, candidates=3)
    state = run_to_completion(k.program, 500_000)
    exp = k.expected(state.mem)
    base = DATA_BASE + (4 + 3 * 4) * 8
    assert state.mem.load(base) == exp["best"]
    assert state.mem.load(base + 8) == exp["bestix"]


def test_haar_wavelet_step():
    k = haar_kernel(n=8)
    state = run_to_completion(k.program, 500_000)
    exp = k.expected(state.mem)
    out = DATA_BASE + 8 * 8
    approx = mem_words(state.mem, out, 4)
    detail = mem_words(state.mem, out + 4 * 8, 4)
    for got, want in zip(approx, exp["approx"]):
        assert got == pytest.approx(want)
    for got, want in zip(detail, exp["detail"]):
        assert got == pytest.approx(want)


def test_checksum_matches_reference():
    k = checksum_kernel(n=32)
    state = run_to_completion(k.program, 500_000)
    exp = k.expected(state.mem)
    assert state.mem.load(DATA_BASE + 32 * 8) == exp["checksum"]


def test_histogram_counts():
    k = histogram_kernel(n=48, buckets=8)
    state = run_to_completion(k.program, 500_000)
    exp = k.expected(state.mem)
    hist = mem_words(state.mem, DATA_BASE + 48 * 8, 8)
    assert hist == exp["hist"]
    assert sum(hist) == 48


def test_sort_produces_sorted_array():
    k = sort_kernel(n=16)
    state = run_to_completion(k.program, 500_000)
    exp = k.expected(state.mem)
    assert mem_words(state.mem, DATA_BASE, 16) == exp["sorted"]


@pytest.mark.parametrize("name", sorted(EXTRA_KERNELS))
@pytest.mark.parametrize("scheme", ["conventional", "sharing", "early"])
def test_extra_kernels_through_pipeline(name, scheme):
    kernel = EXTRA_KERNELS[name]()
    config = MachineConfig(scheme=scheme, int_regs=48, fp_regs=48)
    processor = program_processor(config, kernel.program)
    processor.run()
    reference = run_to_completion(kernel.program, 500_000)
    int_regs, fp_regs = processor.architectural_state()
    assert int_regs == reference.int_regs
    assert fp_regs == reference.fp_regs


def test_store_to_load_forwarding_fires():
    """An in-window store->load to the same word forwards from the LSQ."""
    from repro.isa import assemble

    program = assemble(
        """
        .data
        buf: .zero 4
        .text
        main: movi x1, buf
              movi x2, 10
        loop: st   x2, 0(x1)
              ld   x3, 0(x1)      # adjacent: the store is still in the LSQ
              add  x2, x3, x2
              subi x2, x2, 9
              bnez x2, next
        next: subi x4, x2, 11
              beqz x4, done
              jmp  loop
        done: halt
        """
    )
    config = MachineConfig(scheme="conventional", int_regs=64, fp_regs=64)
    processor = program_processor(config, program)
    stats = processor.run()
    assert stats.store_forwards > 0

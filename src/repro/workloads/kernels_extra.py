"""Additional kernels: the rest of the Mediabench-flavoured set.

Motion-estimation SAD (mpeg2), a Haar wavelet step (epic), a CRC-style
bit-mangling checksum (pegwit), histogram (image processing) and an
insertion sort (control-heavy integer code).  Same contract as
:mod:`repro.workloads.kernels`: deterministic embedded data plus a pure
Python reference.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.isa import assemble
from repro.isa.program import DATA_BASE
from repro.workloads.kernels import KERNELS, Kernel, _fmt


# ------------------------------------------------------------------- SAD
def sad_kernel(block: int = 8, candidates: int = 4, seed: int = 21) -> Kernel:
    """Motion estimation: sum of absolute differences over candidate blocks,
    tracking the best (minimum) SAD — the mpeg2 encoder's hot loop."""
    rng = random.Random(seed)
    reference = [rng.randint(0, 255) for _ in range(block)]
    search = [[rng.randint(0, 255) for _ in range(block)]
              for _ in range(candidates)]

    source = f"""
    .data
    ref:    .word {_fmt(reference)}
    search: .word {_fmt([v for row in search for v in row])}
    best:   .zero 1
    bestix: .zero 1

    .text
    main:   movi x1, 0              # candidate index
            movi x9, 0x7fffffff     # best SAD
            movi x10, -1            # best index
    cand:   movi x2, 0              # element index
            movi x3, {block * 8}
            mul  x4, x1, x3
            movi x5, search
            add  x5, x5, x4
            movi x6, ref
            movi x7, 0              # SAD accumulator
    elem:   ld   x11, 0(x6)
            ld   x12, 0(x5)
            sub  x13, x11, x12
            bge  x13, x0, noneg
            sub  x13, x0, x13       # abs
    noneg:  add  x7, x7, x13
            addi x6, x6, 8
            addi x5, x5, 8
            addi x2, x2, 1
            slti x8, x2, {block}
            bnez x8, elem
            bge  x7, x9, worse
            mov  x9, x7             # new best
            mov  x10, x1
    worse:  addi x1, x1, 1
            slti x8, x1, {candidates}
            bnez x8, cand
            movi x5, best
            st   x9, 0(x5)
            movi x5, bestix
            st   x10, 0(x5)
            halt
    """

    def expected(mem) -> dict:
        sads = [sum(abs(reference[i] - row[i]) for i in range(block))
                for row in search]
        best = min(sads)
        return {"sads": sads, "best": best, "bestix": sads.index(best)}

    return Kernel("sad", source, assemble(source), expected)


# ------------------------------------------------------------------- wavelet
def haar_kernel(n: int = 16, seed: int = 23) -> Kernel:
    """One Haar wavelet analysis step (epic-style subband decomposition):
    out[i] = (x[2i] + x[2i+1]) / 2, out[n/2 + i] = (x[2i] - x[2i+1]) / 2."""
    rng = random.Random(seed)
    x = [round(rng.uniform(-64, 64), 2) for _ in range(n)]

    source = f"""
    .data
    x:   .word {_fmt(x)}
    out: .zero {n}

    .text
    main:   movi x1, 0              # pair index
            movi x5, x
            movi x6, out
            movi x7, out
            addi x7, x7, {(n // 2) * 8}
            fli  f9, 0.5
    pair:   fld  f1, 0(x5)
            fld  f2, 8(x5)
            fadd f3, f1, f2
            fmul f3, f3, f9         # average
            fsub f4, f1, f2
            fmul f4, f4, f9         # detail
            fst  f3, 0(x6)
            fst  f4, 0(x7)
            addi x5, x5, 16
            addi x6, x6, 8
            addi x7, x7, 8
            addi x1, x1, 1
            slti x8, x1, {n // 2}
            bnez x8, pair
            halt
    """

    def expected(mem) -> dict:
        approx = [(x[2 * i] + x[2 * i + 1]) / 2 for i in range(n // 2)]
        detail = [(x[2 * i] - x[2 * i + 1]) / 2 for i in range(n // 2)]
        return {"approx": approx, "detail": detail}

    return Kernel("haar", source, assemble(source), expected)


# ------------------------------------------------------------------- checksum
def checksum_kernel(n: int = 64, seed: int = 25) -> Kernel:
    """CRC-flavoured rolling checksum (pegwit-style bit mangling):
    acc = ((acc << 1) ^ word) & mask, folded with a rotating xor."""
    rng = random.Random(seed)
    words = [rng.randint(0, 2**31 - 1) for _ in range(n)]
    mask = (1 << 32) - 1

    source = f"""
    .data
    in:  .word {_fmt(words)}
    out: .zero 1

    .text
    main:   movi x1, 0
            movi x2, 0x12345678     # acc
            movi x3, {mask}
            movi x10, in
    word:   ld   x4, 0(x10)
            shli x2, x2, 1
            xor  x2, x2, x4
            and  x2, x2, x3
            shri x5, x2, 13
            xor  x2, x2, x5
            addi x10, x10, 8
            addi x1, x1, 1
            slti x8, x1, {n}
            bnez x8, word
            movi x9, out
            st   x2, 0(x9)
            halt
    """

    def expected(mem) -> dict:
        acc = 0x12345678
        for word in words:
            acc = ((acc << 1) ^ word) & mask
            acc ^= acc >> 13
        return {"checksum": acc}

    return Kernel("checksum", source, assemble(source), expected)


# ------------------------------------------------------------------- histogram
def histogram_kernel(n: int = 96, buckets: int = 8, seed: int = 27) -> Kernel:
    """Bucket histogram of byte-like values (image-processing staple):
    data-dependent store addresses exercise the LSQ."""
    rng = random.Random(seed)
    values = [rng.randint(0, buckets * 32 - 1) for _ in range(n)]

    source = f"""
    .data
    in:   .word {_fmt(values)}
    hist: .zero {buckets}

    .text
    main:   movi x1, 0
            movi x10, in
            movi x11, hist
    value:  ld   x4, 0(x10)
            shri x5, x4, 5          # bucket = value / 32
            shli x5, x5, 3          # byte offset
            add  x6, x11, x5
            ld   x7, 0(x6)
            addi x7, x7, 1
            st   x7, 0(x6)
            addi x10, x10, 8
            addi x1, x1, 1
            slti x8, x1, {n}
            bnez x8, value
            halt
    """

    def expected(mem) -> dict:
        hist = [0] * buckets
        for value in values:
            hist[value >> 5] += 1
        return {"hist": hist}

    return Kernel("histogram", source, assemble(source), expected)


# ------------------------------------------------------------------- sort
def sort_kernel(n: int = 24, seed: int = 29) -> Kernel:
    """In-place insertion sort: branchy, pointer-chasing integer code."""
    rng = random.Random(seed)
    values = [rng.randint(-500, 500) for _ in range(n)]

    source = f"""
    .data
    arr: .word {_fmt(values)}

    .text
    main:   movi x1, 1              # i
    outer:  movi x2, arr
            shli x3, x1, 3
            add  x2, x2, x3
            ld   x4, 0(x2)          # key
            mov  x5, x1             # j
    inner:  beqz x5, place
            movi x6, arr
            subi x7, x5, 1
            shli x8, x7, 3
            add  x6, x6, x8
            ld   x9, 0(x6)          # arr[j-1]
            blt  x9, x4, place      # arr[j-1] < key: stop
            addi x10, x6, 8
            st   x9, 0(x10)         # shift right
            mov  x5, x7
            jmp  inner
    place:  movi x6, arr
            shli x8, x5, 3
            add  x6, x6, x8
            st   x4, 0(x6)
            addi x1, x1, 1
            slti x8, x1, {n}
            bnez x8, outer
            halt
    """

    def expected(mem) -> dict:
        return {"sorted": sorted(values)}

    return Kernel("sort", source, assemble(source), expected)


#: second-wave kernels
EXTRA_KERNELS: dict[str, Callable[[], Kernel]] = {
    "sad": sad_kernel,
    "haar": haar_kernel,
    "checksum": checksum_kernel,
    "histogram": histogram_kernel,
    "sort": sort_kernel,
}

#: every real kernel, both waves
ALL_KERNELS: dict[str, Callable[[], Kernel]] = {**KERNELS, **EXTRA_KERNELS}

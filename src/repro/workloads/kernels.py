"""Real kernels written in the toy ISA.

These are the functional-execution counterparts of the paper's Mediabench
and cognitive-computing workloads: GMM acoustic scoring and a DNN layer
(the paper's two cognitive kernels), plus DCT / FIR / ADPCM in the spirit
of Mediabench, and generic linear algebra.  Each builder returns an
assembly string whose ``.data`` section embeds deterministic pseudo-random
inputs, together with a pure-Python reference function so tests and
examples can check end-to-end results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.isa import Program, assemble


@dataclass
class Kernel:
    """An assembled kernel plus its reference computation."""

    name: str
    source: str
    program: Program
    #: maps a SparseMemory-like object to the kernel's numeric result(s)
    expected: Callable


def _fmt(values) -> str:
    return " ".join(repr(round(float(v), 6)) if isinstance(v, float) else str(v)
                    for v in values)


# --------------------------------------------------------------------- GMM
def gmm_kernel(n_components: int = 4, dim: int = 8, seed: int = 7) -> Kernel:
    """GMM acoustic scoring: squared-distance log-likelihood per component.

    score[k] = -0.5 * sum_d (x[d] - mean[k][d])^2 * prec[k][d]
    The kernel writes each component score and the best (max) score.
    """
    rng = random.Random(seed)
    x = [round(rng.uniform(-1, 1), 3) for _ in range(dim)]
    means = [[round(rng.uniform(-1, 1), 3) for _ in range(dim)]
             for _ in range(n_components)]
    precs = [[round(rng.uniform(0.5, 2.0), 3) for _ in range(dim)]
             for _ in range(n_components)]

    flat_means = [v for row in means for v in row]
    flat_precs = [v for row in precs for v in row]
    source = f"""
    .data
    x:      .word {_fmt(x)}
    means:  .word {_fmt(flat_means)}
    precs:  .word {_fmt(flat_precs)}
    scores: .zero {n_components}
    best:   .zero 1

    .text
    main:   movi x1, 0              # component index
            movi x9, {n_components}
            fli  f9, -1e30          # best score
    comp:   movi x2, 0              # dim index
            fli  f1, 0.0            # accumulator
            # row pointers: means + k*dim*8, precs + k*dim*8
            movi x3, {dim * 8}
            mul  x4, x1, x3
            movi x5, means
            add  x5, x5, x4
            movi x6, precs
            add  x6, x6, x4
            movi x7, x
    dim:    fld  f2, 0(x7)          # x[d]
            fld  f3, 0(x5)          # mean
            fld  f4, 0(x6)          # prec
            fsub f5, f2, f3
            fmul f5, f5, f5
            fmul f5, f5, f4
            fadd f1, f1, f5
            addi x7, x7, 8
            addi x5, x5, 8
            addi x6, x6, 8
            addi x2, x2, 1
            slti x8, x2, {dim}
            bnez x8, dim
            fli  f6, -0.5
            fmul f1, f1, f6         # score = -0.5 * acc
            movi x5, scores
            shli x4, x1, 3
            add  x5, x5, x4
            fst  f1, 0(x5)
            fmax f9, f9, f1
            addi x1, x1, 1
            slt  x8, x1, x9
            bnez x8, comp
            movi x5, best
            fst  f9, 0(x5)
            halt
    """

    def expected(mem) -> dict:
        scores = [
            -0.5 * sum((x[d] - means[k][d]) ** 2 * precs[k][d] for d in range(dim))
            for k in range(n_components)
        ]
        return {"scores": scores, "best": max(scores)}

    program = assemble(source)
    return Kernel("gmm", source, program, expected)


# --------------------------------------------------------------------- DNN
def dnn_kernel(in_dim: int = 12, out_dim: int = 8, seed: int = 11) -> Kernel:
    """One fully-connected DNN layer with ReLU: y = relu(W x + b)."""
    rng = random.Random(seed)
    x = [round(rng.uniform(-1, 1), 3) for _ in range(in_dim)]
    w = [[round(rng.uniform(-1, 1), 3) for _ in range(in_dim)]
         for _ in range(out_dim)]
    b = [round(rng.uniform(-0.5, 0.5), 3) for _ in range(out_dim)]

    source = f"""
    .data
    x:   .word {_fmt(x)}
    w:   .word {_fmt([v for row in w for v in row])}
    b:   .word {_fmt(b)}
    y:   .zero {out_dim}

    .text
    main:   movi x1, 0              # output neuron j
    neuron: movi x2, 0              # input i
            movi x3, {in_dim * 8}
            mul  x4, x1, x3
            movi x5, w
            add  x5, x5, x4         # row pointer
            movi x6, x
            fli  f1, 0.0
    macloop: fld f2, 0(x6)
            fld  f3, 0(x5)
            fmul f4, f2, f3
            fadd f1, f1, f4
            addi x5, x5, 8
            addi x6, x6, 8
            addi x2, x2, 1
            slti x8, x2, {in_dim}
            bnez x8, macloop
            movi x7, b
            shli x4, x1, 3
            add  x7, x7, x4
            fld  f5, 0(x7)
            fadd f1, f1, f5         # + bias
            fli  f6, 0.0
            fmax f1, f1, f6         # ReLU
            movi x7, y
            add  x7, x7, x4
            fst  f1, 0(x7)
            addi x1, x1, 1
            slti x8, x1, {out_dim}
            bnez x8, neuron
            halt
    """

    def expected(mem) -> dict:
        y = [max(0.0, sum(w[j][i] * x[i] for i in range(in_dim)) + b[j])
             for j in range(out_dim)]
        return {"y": y}

    program = assemble(source)
    return Kernel("dnn", source, program, expected)


# --------------------------------------------------------------------- DCT
def dct_kernel(n: int = 8, seed: int = 3) -> Kernel:
    """Naive n-point DCT-II with a precomputed cosine table (jpeg-style)."""
    rng = random.Random(seed)
    x = [round(rng.uniform(-128, 127), 2) for _ in range(n)]
    cos = [[round(math.cos(math.pi / n * (i + 0.5) * k), 6) for i in range(n)]
           for k in range(n)]

    source = f"""
    .data
    x:   .word {_fmt(x)}
    cos: .word {_fmt([v for row in cos for v in row])}
    out: .zero {n}

    .text
    main:   movi x1, 0
    kloop:  movi x2, 0
            movi x3, {n * 8}
            mul  x4, x1, x3
            movi x5, cos
            add  x5, x5, x4
            movi x6, x
            fli  f1, 0.0
    iloop:  fld  f2, 0(x6)
            fld  f3, 0(x5)
            fmul f4, f2, f3
            fadd f1, f1, f4
            addi x5, x5, 8
            addi x6, x6, 8
            addi x2, x2, 1
            slti x8, x2, {n}
            bnez x8, iloop
            movi x7, out
            shli x4, x1, 3
            add  x7, x7, x4
            fst  f1, 0(x7)
            addi x1, x1, 1
            slti x8, x1, {n}
            bnez x8, kloop
            halt
    """

    def expected(mem) -> dict:
        out = [sum(x[i] * cos[k][i] for i in range(n)) for k in range(n)]
        return {"out": out}

    return Kernel("dct", source, assemble(source), expected)


# --------------------------------------------------------------------- FIR
def fir_kernel(n: int = 64, taps: int = 8, seed: int = 5) -> Kernel:
    """FIR filter: y[i] = sum_t h[t] * x[i+t]."""
    rng = random.Random(seed)
    x = [round(rng.uniform(-1, 1), 3) for _ in range(n + taps)]
    h = [round(rng.uniform(-0.5, 0.5), 3) for _ in range(taps)]

    source = f"""
    .data
    x:   .word {_fmt(x)}
    h:   .word {_fmt(h)}
    y:   .zero {n}

    .text
    main:   movi x1, 0              # sample index
    sample: movi x2, 0              # tap index
            movi x5, x
            shli x4, x1, 3
            add  x5, x5, x4
            movi x6, h
            fli  f1, 0.0
    tap:    fld  f2, 0(x5)
            fld  f3, 0(x6)
            fmul f4, f2, f3
            fadd f1, f1, f4
            addi x5, x5, 8
            addi x6, x6, 8
            addi x2, x2, 1
            slti x8, x2, {taps}
            bnez x8, tap
            movi x7, y
            add  x7, x7, x4
            fst  f1, 0(x7)
            addi x1, x1, 1
            slti x8, x1, {n}
            bnez x8, sample
            halt
    """

    def expected(mem) -> dict:
        y = [sum(h[t] * x[i + t] for t in range(taps)) for i in range(n)]
        return {"y": y}

    return Kernel("fir", source, assemble(source), expected)


# --------------------------------------------------------------------- ADPCM
def adpcm_kernel(n: int = 128, seed: int = 9) -> Kernel:
    """ADPCM-style integer encoder: branchy step-size adaptation.

    A simplified IMA-ADPCM: per sample, compute delta to the predictor,
    emit a 2-bit code, adapt predictor and step size.  Exercises the
    integer side: dependent chains, data-dependent branches, loads/stores.
    """
    rng = random.Random(seed)
    samples = [rng.randint(-2000, 2000) for _ in range(n)]

    source = f"""
    .data
    in:   .word {_fmt(samples)}
    code: .zero {n}
    pred_out: .zero 1

    .text
    main:   movi x1, 0             # index
            movi x2, 0             # predictor
            movi x3, 16            # step
            movi x10, in
            movi x11, code
    sample: ld   x4, 0(x10)
            sub  x5, x4, x2        # delta
            movi x6, 0             # code bits
            bge  x5, x0, pos
            movi x6, 2             # sign bit
            sub  x5, x0, x5        # abs(delta)
    pos:    blt  x5, x3, small
            ori  x6, x6, 1         # magnitude bit
            add  x2, x2, x3        # predictor += step (sign applied below)
            shli x3, x3, 1         # step *= 2
            jmp  clamp
    small:  shri x3, x3, 1         # step /= 2
    clamp:  movi x7, 4
            bge  x3, x7, himax
            movi x3, 4             # min step
    himax:  movi x7, 4096
            blt  x3, x7, stored
            movi x3, 4096          # max step
    stored: st   x6, 0(x11)
            addi x10, x10, 8
            addi x11, x11, 8
            addi x1, x1, 1
            slti x8, x1, {n}
            bnez x8, sample
            movi x9, pred_out
            st   x2, 0(x9)
            halt
    """

    def expected(mem) -> dict:
        pred, step = 0, 16
        codes = []
        for s in samples:
            delta = s - pred
            code = 0
            if delta < 0:
                code = 2
                delta = -delta
            if delta >= step:
                code |= 1
                pred += step
                step <<= 1
            else:
                step >>= 1
            if step < 4:
                step = 4
            if step > 4096:
                step = 4096
            codes.append(code)
        return {"codes": codes, "pred": pred}

    return Kernel("adpcm", source, assemble(source), expected)


# --------------------------------------------------------------------- matmul
def matmul_kernel(n: int = 6, seed: int = 13) -> Kernel:
    """Dense n x n floating-point matrix multiply C = A * B."""
    rng = random.Random(seed)
    a = [[round(rng.uniform(-1, 1), 3) for _ in range(n)] for _ in range(n)]
    b = [[round(rng.uniform(-1, 1), 3) for _ in range(n)] for _ in range(n)]

    source = f"""
    .data
    a: .word {_fmt([v for row in a for v in row])}
    b: .word {_fmt([v for row in b for v in row])}
    c: .zero {n * n}

    .text
    main:   movi x1, 0              # i
    iloop:  movi x2, 0              # j
    jloop:  movi x3, 0              # k
            fli  f1, 0.0
            movi x9, {n * 8}
            mul  x5, x1, x9
            movi x6, a
            add  x5, x5, x6         # &a[i][0]
            movi x6, b
            shli x7, x2, 3
            add  x6, x6, x7         # &b[0][j]
    kloop:  fld  f2, 0(x5)
            fld  f3, 0(x6)
            fmul f4, f2, f3
            fadd f1, f1, f4
            addi x5, x5, 8
            add  x6, x6, x9
            addi x3, x3, 1
            slti x8, x3, {n}
            bnez x8, kloop
            mul  x5, x1, x9
            shli x7, x2, 3
            add  x5, x5, x7
            movi x6, c
            add  x5, x5, x6
            fst  f1, 0(x5)
            addi x2, x2, 1
            slti x8, x2, {n}
            bnez x8, jloop
            addi x1, x1, 1
            slti x8, x1, {n}
            bnez x8, iloop
            halt
    """

    def expected(mem) -> dict:
        c = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        return {"c": c}

    return Kernel("matmul", source, assemble(source), expected)


#: All kernel builders with their default sizes.
KERNELS: dict[str, Callable[[], Kernel]] = {
    "gmm": gmm_kernel,
    "dnn": dnn_kernel,
    "dct": dct_kernel,
    "fir": fir_kernel,
    "adpcm": adpcm_kernel,
    "matmul": matmul_kernel,
}

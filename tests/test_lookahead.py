"""Tests for lookahead hint annotation on functional streams."""

import pytest

from repro import MachineConfig, assemble
from repro.frontend.fetch import IterSource
from repro.isa.executor import FunctionalExecutor, run_to_completion
from repro.isa.opcodes import Op
from repro.pipeline.processor import Processor
from repro.workloads.kernels import gmm_kernel
from repro.workloads.lookahead import HINT_WINDOW, annotate_hints


def annotated(text):
    executor = FunctionalExecutor(assemble(text))
    return list(annotate_hints(executor.run(100_000)))


def test_single_use_chain_hinted():
    insts = annotated(
        """
        main: movi x1, 1
              add  x1, x1, x1    # sole consumer of movi's value, chain
              add  x1, x1, x1
              add  x2, x1, x1    # consumes twice: not single use
              halt
        """
    )
    movi = insts[0]
    assert movi.hint_dest_single_use
    assert movi.hint_reuse_depth >= 2  # the chain continues through the adds
    first_add = insts[1]
    assert first_add.hint_src_single_use == (True, True)
    last_add = insts[3]
    # x1's final value is read twice by the same instruction: not single use
    assert not insts[2].hint_dest_single_use


def test_multi_consumer_not_hinted():
    insts = annotated(
        """
        main: movi x1, 5
              add  x2, x1, x1
              add  x3, x1, x2    # second consumer of x1's value
              movi x1, 0         # redefinition closes the lifetime
              halt
        """
    )
    assert not insts[0].hint_dest_single_use


def test_unknown_fate_is_conservative():
    # x1 is never redefined: its fate is beyond any window -> multi-use
    insts = annotated(
        """
        main: movi x1, 5
              add  x2, x1, x1
              halt
        """
    )
    assert not insts[0].hint_dest_single_use
    assert insts[1].hint_src_single_use == (False, False)


def test_window_bounds_lookahead():
    def gap(nops):
        filler = "\n".join("      nop" for _ in range(nops))
        return annotated(f"""
    main: movi x1, 5
{filler}
          add  x2, x1, x1
          movi x1, 0
          halt
    """)

    # one consuming instruction, redefinition visible: single use
    assert gap(HINT_WINDOW - 16)[0].hint_dest_single_use
    # fate unknown within the window: conservative multi-use
    assert not gap(HINT_WINDOW + 16)[0].hint_dest_single_use


def test_hinted_scheme_on_real_kernel():
    """The GMM kernel runs under the hinted scheme with lookahead hints,
    reusing registers and committing correct state."""
    kernel = gmm_kernel(n_components=4, dim=8)
    reference = run_to_completion(kernel.program, 2_000_000)

    executor = FunctionalExecutor(kernel.program)
    source = IterSource(annotate_hints(executor.run(2_000_000)))
    config = MachineConfig(scheme="hinted", int_regs=56, fp_regs=56)
    processor = Processor(config, source)
    stats = processor.run()

    int_regs, fp_regs = processor.architectural_state()
    assert int_regs == reference.int_regs
    assert fp_regs == reference.fp_regs
    assert stats.renamer_stats.reuses > 50
    assert stats.renamer_stats.repairs == 0  # hints are conservative


def test_hints_preserve_stream_contents():
    kernel = gmm_kernel(n_components=2, dim=4)
    executor = FunctionalExecutor(kernel.program)
    plain = list(executor.run(100_000))
    executor2 = FunctionalExecutor(kernel.program)
    hinted = list(annotate_hints(executor2.run(100_000)))
    assert len(plain) == len(hinted)
    for a, b in zip(plain, hinted):
        assert (a.seq, a.pc, a.op, a.result) == (b.seq, b.pc, b.op, b.result)

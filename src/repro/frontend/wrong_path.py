"""Wrong-path instruction synthesis.

When ``MachineConfig.model_wrong_path`` is set, a mispredicted branch no
longer stalls fetch: the front end keeps fetching down the *wrong* path
until the branch resolves, and the fetched instructions are renamed,
issued and executed speculatively — consuming physical registers, issue
slots and cache bandwidth, overwriting shared registers — and are then
squashed by a walk-back that restores the rename map and rolls reused
registers back to their shadow-cell copies (the paper's Section IV-B
branch-misprediction case).

Since neither the functional executor nor the trace generator knows the
program's actual wrong-path code, the wrong path is synthesised: a
plausible mix of ALU operations and loads over the architectural
registers.  Wrong-path instructions are flagged (``DynInst.wrong_path``)
so the pipeline skips operand verification for them (their input values
are meaningless by construction) and asserts they never commit.
"""

from __future__ import annotations

import random

from repro.isa.dyninst import DynInst
from repro.isa.opcodes import Op
from repro.isa.registers import xreg

_OPS = (Op.ADD, Op.XOR, Op.SUB, Op.AND, Op.OR)
#: share of wrong-path instructions that are loads
_LOAD_FRAC = 0.2
#: bytes the wrong-path loads spread over
_WORKING_SET = 8 << 20


class WrongPathGenerator:
    """Synthesises the instructions beyond a mispredicted branch."""

    def __init__(self) -> None:
        self.rng = random.Random(0xBAD)
        self._seq = 0
        self.generated = 0

    def next_inst(self, pc: int) -> DynInst:
        """One wrong-path instruction at ``pc`` (sequence numbers are
        negative: they never mix with architectural ones)."""
        self._seq -= 1
        self.generated += 1
        rng = self.rng
        if rng.random() < _LOAD_FRAC:
            dyn = DynInst(
                seq=self._seq,
                pc=pc,
                op=Op.LD,
                dest=xreg(rng.randint(1, 30)),
                srcs=(xreg(rng.randint(1, 30)),),
                imm=0,
                wrong_path=True,
            )
            dyn.mem_addr = rng.randrange(0, _WORKING_SET, 8)
        else:
            dyn = DynInst(
                seq=self._seq,
                pc=pc,
                op=rng.choice(_OPS),
                dest=xreg(rng.randint(1, 30)),
                srcs=(xreg(rng.randint(1, 30)), xreg(rng.randint(1, 30))),
                wrong_path=True,
            )
        dyn.result = 0  # meaningless token; never observed by correct path
        dyn.next_pc = pc + 1
        return dyn

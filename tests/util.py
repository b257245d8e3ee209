"""Shared helpers for the test suite."""

from __future__ import annotations

from itertools import count
from typing import Optional

from repro.isa.dyninst import DynInst
from repro.isa.opcodes import Op, OPCODES
from repro.isa.registers import RegRef, freg, reg, xreg

_seq = count()


def fresh_trace_memo(monkeypatch) -> None:
    """Swap in an empty process-wide trace memo; undone at teardown."""
    from repro.harness import cache

    monkeypatch.setattr(cache, "TRACE_MEMO", cache.TraceMemo())


def make_inst(
    op: Op,
    dest: Optional[str] = None,
    srcs: tuple[str, ...] = (),
    pc: int = 0,
    seq: Optional[int] = None,
    **kw,
) -> DynInst:
    """Build a DynInst from register names, e.g. make_inst(Op.ADD, 'x1', ('x2','x3'))."""
    return DynInst(
        seq=seq if seq is not None else next(_seq),
        pc=pc,
        op=op,
        dest=reg(dest) if dest else None,
        srcs=tuple(reg(s) for s in srcs),
        **kw,
    )


def add(dest: str, a: str, b: str, pc: int = 0, **kw) -> DynInst:
    return make_inst(Op.ADD, dest, (a, b), pc=pc, **kw)


def always_ready(tag) -> bool:
    return True


def never_ready(tag) -> bool:
    return False

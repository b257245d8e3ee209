"""Lookahead hint annotation for functional instruction streams.

The compiler-hint comparator (:mod:`repro.core.hinted`) needs per-operand
single-use marks.  Synthetic traces embed them at build time; for *real*
programs this module computes them the way a compiler would — from the
code itself — by buffering a lookahead window over the dynamic stream and
checking, for each produced value, whether exactly one consumer appears
before the register is redefined.

A value whose redefinition does not occur inside the window is treated as
multi-use (conservative: no speculation), mirroring a compiler's
conservatism around unknown control flow.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional

from repro.isa.dyninst import DynInst
from repro.isa.registers import RegRef

#: instructions of lookahead past the one being annotated
HINT_WINDOW = 64


class _Window:
    """Lookahead buffer with positional value-lifetime queries."""

    def __init__(self, stream: Iterable[DynInst]) -> None:
        self._iter = iter(stream)
        self.buffer: deque[DynInst] = deque()
        self._exhausted = False
        self.fill()

    def fill(self) -> None:
        while not self._exhausted and len(self.buffer) <= HINT_WINDOW:
            nxt = next(self._iter, None)
            if nxt is None:
                self._exhausted = True
                return
            self.buffer.append(nxt)

    def pop(self) -> Optional[DynInst]:
        if not self.buffer:
            return None
        dyn = self.buffer.popleft()
        self.fill()
        return dyn

    def value_fate(self, ref: RegRef, start: int) -> Optional[tuple[int, int]]:
        """Fate of the value in ``ref`` produced just before buffer index
        ``start``: scans forward for consumers until the redefinition.

        Returns (consumer count, index of the sole consumer or -1), or
        None when the redefinition lies beyond the window (unknown fate).
        """
        count = 0
        sole = -1
        for index in range(start, len(self.buffer)):
            later = self.buffer[index]
            # single-use is per consuming *instruction*: an instruction
            # reading the value twice (mul r1 <- r1, r1) is one consumer
            if any(src == ref for src in later.srcs):
                count += 1
                sole = index if count == 1 else -1
            if later.dest == ref:
                return count, sole
        return None


def annotate_hints(stream: Iterable[DynInst]) -> Iterator[DynInst]:
    """Yield the stream with ``hint_src_single_use`` / ``hint_dest_single_use``
    / ``hint_reuse_depth`` filled from a :data:`HINT_WINDOW`-instruction
    lookahead."""
    win = _Window(stream)
    while True:
        dyn = win.pop()
        if dyn is None:
            return

        if dyn.srcs:
            marks = []
            for src in dyn.srcs:
                if dyn.dest == src:
                    # dyn itself redefines the register: the consumed value's
                    # lifetime closes here, no later consumer can exist
                    marks.append(True)
                else:
                    # dyn already consumed the value; it is the *last* use iff
                    # no further consumer appears before the redefinition
                    fate = win.value_fate(src, 0)
                    marks.append(fate is not None and fate[0] == 0)
            dyn.hint_src_single_use = tuple(marks)

        if dyn.dest is not None:
            fate = win.value_fate(dyn.dest, 0)
            single = fate is not None and fate[0] == 1
            dyn.hint_dest_single_use = single
            depth = 0
            position = 0
            ref = dyn.dest
            while single and depth < 3:
                _count, consumer_index = fate  # type: ignore[misc]
                consumer = win.buffer[consumer_index]
                if consumer.dest != ref:
                    break  # the sole consumer does not extend the chain
                depth += 1
                position = consumer_index + 1
                fate = win.value_fate(ref, position)
                single = fate is not None and fate[0] == 1
            dyn.hint_reuse_depth = depth
        yield dyn

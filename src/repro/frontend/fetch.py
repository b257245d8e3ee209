"""Instruction fetch engine.

Pulls the dynamic instruction stream from an :class:`InstSource` into the
fetch queue, modelling I-cache latency, branch-prediction outcomes and the
misprediction stall/redirect penalty.  After a precise exception the
processor re-injects squashed instructions through :meth:`FetchUnit.inject_replay`,
which are refetched in order ahead of new instructions from the source.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional, Protocol

from repro.frontend.branch_predictor import BranchUnit
from repro.isa.dyninst import DynInst
from repro.isa.program import INST_BYTES
from repro.mem.hierarchy import LINE_BYTES

#: fetch-queue entries (Table I)
FETCH_QUEUE = 32
#: cycles from a mispredicted branch's resolution to the redirected fetch
MISPREDICT_PENALTY = 15


class InstSource(Protocol):
    """Anything that produces the dynamic instruction stream in order."""

    def next_inst(self) -> Optional[DynInst]:
        """Return the next instruction, or None at end of stream."""
        ...


class IterSource:
    """Adapts a plain iterator/generator of DynInst to :class:`InstSource`."""

    def __init__(self, iterator: Iterable[DynInst]) -> None:
        self._iter: Iterator[DynInst] = iter(iterator)

    def next_inst(self) -> Optional[DynInst]:
        return next(self._iter, None)


class FetchUnit:
    """Correct-path fetch with I-cache and branch-misprediction stalls."""

    def __init__(
        self,
        source: InstSource,
        branch_unit: BranchUnit,
        icache,
        fetch_width: int = 3,
        queue_size: int = FETCH_QUEUE,
        mispredict_penalty: int = MISPREDICT_PENALTY,
        wrong_path=None,
    ) -> None:
        self.source = source
        self.branch_unit = branch_unit
        self.icache = icache
        self.fetch_width = fetch_width
        self.queue_size = queue_size
        self.mispredict_penalty = mispredict_penalty
        #: WrongPathGenerator, or None for the stall-on-mispredict model
        self.wrong_path = wrong_path
        self._wrong_branch: Optional[DynInst] = None
        self._wrong_pc = 0

        self.queue: deque[DynInst] = deque()
        self.replay: deque[DynInst] = deque()
        self._pending: Optional[DynInst] = None
        self._eof = False
        self._stall_until = 0  # I-cache stall
        self._resume_at: Optional[int] = None  # misprediction stall (None = not stalled)
        self._waiting_branch_seq: Optional[int] = None
        self._last_line: Optional[int] = None
        self.fetched = 0
        self.icache_stall_cycles = 0

    # ------------------------------------------------------------------ state
    @property
    def eof(self) -> bool:
        """True when the source is exhausted and all queues are drained."""
        return (
            self._eof
            and self._pending is None
            and not self.queue
            and not self.replay
        )

    def _next_raw(self) -> Optional[DynInst]:
        if self._wrong_branch is not None:
            dyn = self.wrong_path.next_inst(self._wrong_pc)
            self._wrong_pc += 1
            return dyn
        if self.replay:
            return self.replay.popleft()
        if self._eof:
            return None
        dyn = self.source.next_inst()
        if dyn is None:
            self._eof = True
        return dyn

    # ------------------------------------------------------------- operations
    def tick(self, cycle: int) -> None:
        """Fetch up to ``fetch_width`` instructions into the queue."""
        if self._waiting_branch_seq is not None:
            return  # stalled: mispredicted branch not resolved yet
        if self._resume_at is not None:
            if cycle < self._resume_at:
                return  # redirect penalty still draining
            self._resume_at = None
        if cycle < self._stall_until:
            self.icache_stall_cycles += 1
            return

        for _ in range(self.fetch_width):
            if len(self.queue) >= self.queue_size:
                return
            dyn = self._pending if self._pending is not None else self._next_raw()
            self._pending = None
            if dyn is None:
                return

            # I-cache: charge latency when crossing into a new line
            addr = dyn.pc * INST_BYTES
            line = addr // LINE_BYTES
            if line != self._last_line:
                latency = self.icache.access(addr, False, cycle)
                self._last_line = line
                if latency > 1:
                    self._stall_until = cycle + latency - 1
                    self._pending = dyn
                    return

            dyn.fetch_cycle = cycle
            self.queue.append(dyn)
            self.fetched += 1

            if dyn.info.is_branch:
                correct = self.branch_unit.observe(dyn)
                if not correct:
                    dyn.mispredicted = True
                    if self.wrong_path is None or dyn.wrong_path:
                        self._waiting_branch_seq = dyn.seq
                        return  # stall until resolution
                    # speculate down the wrong path until resolution
                    self._wrong_branch = dyn
                    self._wrong_pc = (dyn.pc + 1) if dyn.taken else (
                        dyn.target if dyn.target is not None else dyn.pc + 1)
                    return  # redirect ends the fetch group
                if dyn.taken:
                    return  # taken branch ends the fetch group

    def next_active_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which :meth:`tick` could make progress.

        Returns None when fetch cannot wake on its own — stalled on an
        unresolved branch (an external ``branch_resolved`` call restarts
        it) or the source is exhausted with nothing buffered.  Used by the
        generated kernel to bound quiet-cycle skips.
        """
        if self._waiting_branch_seq is not None:
            return None
        if (self._eof and self._pending is None and not self.replay
                and self._wrong_branch is None):
            return None
        start = cycle + 1
        if self._resume_at is not None and self._resume_at > start:
            start = self._resume_at
        if self._stall_until > start:
            start = self._stall_until
        return start

    def account_idle(self, first: int, last: int) -> None:
        """Bulk-account the stall bookkeeping :meth:`tick` would have done
        over the skipped quiet cycles ``[first, last]``.

        Mirrors tick()'s early-return order: no counting while waiting on
        a branch; cycles below ``_resume_at`` drain the redirect penalty
        silently; remaining cycles below ``_stall_until`` are I-cache
        stall cycles.
        """
        if self._waiting_branch_seq is not None:
            return
        lo = first
        if self._resume_at is not None and self._resume_at > lo:
            lo = self._resume_at
        hi = min(last + 1, self._stall_until)
        if hi > lo:
            self.icache_stall_cycles += hi - lo

    def branch_resolved(self, dyn: DynInst, cycle: int, extra_recovery: int = 0) -> None:
        """Called at writeback of a branch; resumes fetch if it was the stalling one."""
        if self._waiting_branch_seq == dyn.seq:
            self._waiting_branch_seq = None
            self._resume_at = cycle + self.mispredict_penalty + extra_recovery
        if self._wrong_branch is dyn:
            # discard everything fetched down the wrong path and redirect
            # (rebuilt in place: the processor's hot loop holds a reference
            # to this deque)
            self._wrong_branch = None
            if self._pending is not None and self._pending.wrong_path:
                self._pending = None
            kept = [d for d in self.queue if not d.wrong_path]
            self.queue.clear()
            self.queue.extend(kept)
            self._resume_at = cycle + self.mispredict_penalty + extra_recovery
            self._last_line = None

    def pop(self) -> Optional[DynInst]:
        return self.queue.popleft() if self.queue else None

    def peek(self) -> Optional[DynInst]:
        return self.queue[0] if self.queue else None

    def inject_replay(self, insts: Iterable[DynInst], cycle: int, redirect_penalty: int) -> None:
        """Flush the fetch queue and re-fetch ``insts`` (in order) first.

        Re-fetch order must follow sequence numbers: the newly squashed
        instructions, then an instruction stalled in the pending slot
        (I-cache miss in flight), then any not-yet-refetched instructions
        from an earlier exception.
        """
        self.queue.clear()
        self._wrong_branch = None
        tail: list[DynInst] = []
        if self._pending is not None and not self._pending.wrong_path:
            self._pending.reset_pipeline_state()
            tail.append(self._pending)
        self._pending = None
        tail.extend(self.replay)
        self.replay = deque(insts)
        self.replay.extend(tail)
        self._waiting_branch_seq = None
        self._resume_at = cycle + redirect_penalty
        self._last_line = None

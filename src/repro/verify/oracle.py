"""Commit-time differential oracle.

:class:`OracleChecker` runs the in-order :class:`~repro.isa.executor.FunctionalExecutor`
in lockstep with the out-of-order pipeline, one reference step per committed
(non-micro-op) instruction, and cross-checks every architecturally visible
effect the moment it retires:

* the committed destination value, read from the **physical register file
  through the rename tag** — so a wrong version woken, a premature reuse or
  a bad recovery shows up as a value mismatch at the first affected commit,
  not as a skewed IPC thousands of cycles later;
* memory effects (effective address and store data) and branch outcomes
  (next PC);
* at halt, the full architectural register state read through the
  retirement map, and — when the producing executor's state is supplied —
  the final memory image.

Any mismatch raises :class:`DivergenceError` pinpointing the first
divergent instruction together with a window of the commits leading up to
it.

Two modes:

**program mode** (``OracleChecker(program=...)``) — the oracle owns a fresh
:class:`FunctionalExecutor` over the same program with ``NoFaults`` and its
own memory.  Faults and interrupts are architecturally invisible (a
faulting access is serviced and replayed, committing exactly once), so the
committed non-micro-op stream must match the clean in-order execution 1:1.

**stream mode** (no program) — for synthetic workloads with no re-executable
program, the oracle checks commit order (strictly increasing ``seq``) and
that the value standing in the physical register file at commit equals the
functionally recorded result carried by the :class:`DynInst` itself.

Renamers that release registers before their redefiner commits declare
``commit_time_value_stable = False`` (early release): for those the
per-commit PRF value check is skipped — the value may legitimately be gone
— but stream/order/memory checks and the end-of-program state comparison
still apply.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.isa.dyninst import DynInst
from repro.isa.executor import ArchState, FunctionalExecutor, NoFaults
from repro.isa.program import Program


def values_equal(a, b) -> bool:
    """Value equality with NaN == NaN (verification semantics)."""
    if a is None or b is None:
        return a is b
    if a == b:
        return True
    return a != a and b != b


def canon_value(value):
    """Canonical form for commit-stream comparison (NaN-safe, -0.0 == 0.0)."""
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == 0.0:
            return 0.0
    return value


class CommitRecorder:
    """``on_commit`` hook that collects a canonical committed-instruction
    signature: one ``(seq, pc, op, mem_addr, store_value, result)`` tuple
    per architectural commit (micro-ops and wrong-path fetches excluded),
    values canonicalised with :func:`canon_value`.

    Two runs of the same program are architecturally equivalent iff their
    signatures match — the fuzzer uses this to cross-check schemes against
    each other, and the fault-injection campaign to compare a faulted run
    against its clean reference.
    """

    def __init__(self) -> None:
        self.stream: list[tuple] = []

    def __call__(self, processor, dyn: DynInst) -> None:
        if dyn.micro_op or dyn.wrong_path:
            return
        self.stream.append((
            dyn.seq, dyn.pc, dyn.op.value, dyn.mem_addr,
            canon_value(dyn.store_value), canon_value(dyn.result),
        ))

    def signature(self) -> tuple:
        return tuple(self.stream)


@dataclass(frozen=True)
class CommitRecord:
    """One committed instruction as the oracle saw it."""

    seq: int
    pc: int
    op: str
    cycle: int
    dest: Optional[str] = None
    value: object = None
    mem_addr: Optional[int] = None
    store_value: object = None

    def __str__(self) -> str:
        parts = [f"[{self.seq}@{self.pc}] {self.op} (cycle {self.cycle})"]
        if self.dest is not None:
            parts.append(f"{self.dest}={self.value!r}")
        if self.mem_addr is not None:
            if self.store_value is not None:
                parts.append(f"mem[{self.mem_addr:#x}]<-{self.store_value!r}")
            else:
                parts.append(f"mem[{self.mem_addr:#x}]")
        return " ".join(parts)


class DivergenceError(AssertionError):
    """The pipeline's committed state diverged from the reference model.

    Carries the first divergent instruction (``dyn``), what diverged
    (``field``, ``expected``, ``actual``) and the window of commits that
    led up to it (``window``).
    """

    def __init__(self, message: str, dyn: Optional[DynInst] = None,
                 field: str = "", expected=None, actual=None,
                 window: tuple = ()) -> None:
        lines = [message]
        if dyn is not None:
            lines.append(f"  first divergent instruction: {dyn}")
        if field:
            lines.append(f"  {field}: expected {expected!r}, got {actual!r}")
        if window:
            lines.append("  preceding commits:")
            lines.extend(f"    {record}" for record in window)
        super().__init__("\n".join(lines))
        self.dyn = dyn
        self.field = field
        self.expected = expected
        self.actual = actual
        self.window = window


class OracleChecker:
    """Differential commit-time checker (see module docstring).

    Attach via ``Processor(..., oracle=OracleChecker(program=p))`` or the
    ``Processor(..., oracle=True)`` convenience (stream mode); the pipeline
    calls :meth:`on_commit` for every retired instruction and
    :meth:`on_halt` when the run ends.
    """

    def __init__(
        self,
        program: Optional[Program] = None,
        source_state: Optional[ArchState] = None,
        window: int = 8,
    ) -> None:
        #: in-order golden model (program mode only); runs fault-free on its
        #: own memory — faults/interrupts must be architecturally invisible
        self.reference: Optional[FunctionalExecutor] = (
            FunctionalExecutor(program, fault_model=NoFaults())
            if program is not None else None
        )
        #: state of the executor feeding the pipeline, for the final memory
        #: comparison (program mode; optional)
        self.source_state = source_state
        self.window: deque[CommitRecord] = deque(maxlen=window)
        self.commits = 0
        self.last_seq = -1

    # ------------------------------------------------------------------ helpers
    def _fail(self, processor, dyn: DynInst, field: str,
              expected, actual) -> None:
        raise DivergenceError(
            f"commit-time divergence under scheme "
            f"{processor.config.scheme!r} at cycle {processor.cycle} "
            f"(commit #{self.commits})",
            dyn=dyn, field=field, expected=expected, actual=actual,
            window=tuple(self.window),
        )

    def _committed_value(self, processor, dyn: DynInst):
        try:
            return processor.renamer.read(dyn.dest_tag)
        except Exception as exc:
            raise DivergenceError(
                f"committed destination tag {dyn.dest_tag} unreadable at "
                f"cycle {processor.cycle}",
                dyn=dyn, field="dest_tag", expected="readable", actual=exc,
                window=tuple(self.window),
            ) from exc

    # ------------------------------------------------------------------ hooks
    def on_commit(self, processor, dyn: DynInst) -> None:
        """Called by the pipeline for every committed ROB head."""
        if dyn.micro_op or dyn.wrong_path:
            return  # repair µops / wrong path are microarchitectural only

        if dyn.seq <= self.last_seq:
            self._fail(processor, dyn, "commit order (seq)",
                       f"> {self.last_seq}", dyn.seq)
        self.last_seq = dyn.seq
        self.commits += 1

        if self.reference is not None:
            expected = self._step_reference(processor, dyn)
        else:
            expected = dyn.result  # functionally recorded by the producer

        value = None
        if (dyn.dest_tag is not None and expected is not None
                and processor.renamer.commit_time_value_stable):
            value = self._committed_value(processor, dyn)
            if not values_equal(value, expected):
                self._fail(processor, dyn,
                           f"committed value of {dyn.dest} (tag {dyn.dest_tag})",
                           expected, value)

        self.window.append(CommitRecord(
            seq=dyn.seq, pc=dyn.pc, op=dyn.op.value, cycle=processor.cycle,
            dest=str(dyn.dest) if dyn.dest is not None else None,
            value=value if value is not None else expected,
            mem_addr=dyn.mem_addr, store_value=dyn.store_value,
        ))

    def _step_reference(self, processor, dyn: DynInst):
        """Advance the golden model one instruction; cross-check effects."""
        ref = self.reference.step()
        if ref is None:
            self._fail(processor, dyn, "instruction stream",
                       "reference already halted", f"commit of {dyn}")
        if ref.seq != dyn.seq:
            self._fail(processor, dyn, "sequence number", ref.seq, dyn.seq)
        if ref.pc != dyn.pc:
            self._fail(processor, dyn, "pc", ref.pc, dyn.pc)
        if ref.op is not dyn.op:
            self._fail(processor, dyn, "opcode", ref.op, dyn.op)
        if ref.mem_addr != dyn.mem_addr:
            self._fail(processor, dyn, "effective address",
                       ref.mem_addr, dyn.mem_addr)
        if not values_equal(ref.store_value, dyn.store_value):
            self._fail(processor, dyn, "store value",
                       ref.store_value, dyn.store_value)
        if dyn.info.is_branch and ref.next_pc != dyn.next_pc:
            self._fail(processor, dyn, "branch next_pc",
                       ref.next_pc, dyn.next_pc)
        return ref.result

    def on_halt(self, processor, complete: bool = True) -> None:
        """End-of-run architectural state comparison.

        ``complete`` is False when the run was cut short (``max_insts``):
        the reference then simply stops alongside the pipeline.  The
        committed-register comparison is still valid for renamers with
        stable commit-time values (retirement state always trails the
        reference by zero instructions); for early release it is only
        meaningful at a true program end, when the retirement map has
        quiesced and its targets can no longer have been recycled.
        """
        if self.reference is None:
            return
        if not complete and not processor.renamer.commit_time_value_stable:
            return
        state = self.reference.state
        int_regs, fp_regs = processor.architectural_state()
        diffs = state.diff_regs(int_regs, fp_regs)
        if diffs:
            raise DivergenceError(
                f"final architectural register state diverged under scheme "
                f"{processor.config.scheme!r} after {self.commits} commits: "
                f"{', '.join(diffs)}",
                window=tuple(self.window),
            )
        if complete and self.source_state is not None \
                and self.source_state.mem != state.mem:
            raise DivergenceError(
                "final memory image diverged from the fault-free reference "
                f"after {self.commits} commits (faults/interrupts must be "
                "architecturally invisible)",
                window=tuple(self.window),
            )


def lockstep_run(
    config,
    program: Program,
    fault_model=None,
    max_insts: Optional[int] = None,
    program_budget: int = 10_000_000,
    on_cycle=None,
    on_cycle_interval: int = 16,
    on_commit=None,
):
    """Run ``program`` through the pipeline with the oracle attached.

    Builds the functional source (with hint annotation for the hinted
    scheme), wires up a program-mode :class:`OracleChecker` plus an
    optional ``on_cycle`` hook (e.g. ``check_invariants``), runs to
    completion and returns the stats.  Raises :class:`DivergenceError` on
    the first architectural mismatch.
    """
    from repro.frontend.fetch import IterSource
    from repro.pipeline.processor import Processor

    executor = FunctionalExecutor(program, fault_model=fault_model)
    stream = executor.run(program_budget)
    if config.scheme == "hinted":
        from repro.workloads.lookahead import annotate_hints

        stream = annotate_hints(stream)
    oracle = OracleChecker(program=program, source_state=executor.state)
    processor = Processor(
        config, IterSource(stream), fault_model=fault_model,
        on_cycle=on_cycle, on_cycle_interval=on_cycle_interval,
        on_commit=on_commit, oracle=oracle,
    )
    return processor.run(max_insts=max_insts)

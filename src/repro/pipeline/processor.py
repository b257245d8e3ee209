"""The out-of-order processor model.

One :class:`Processor` couples the front end (fetch + branch prediction +
L1-I), a renaming scheme (conventional or sharing), the issue queue with
version-tagged wakeup, the load/store queue, functional units, the memory
hierarchy and in-order commit with precise exceptions.

Stage evaluation order within a cycle is commit → writeback → issue →
rename/dispatch → fetch, so results propagate with realistic one-cycle
visibility and a value written back in cycle N can feed a dependent issue
in the same cycle (full bypass network).

Verification: when ``config.verify_values`` is set, every issued
instruction's renamed source operands are read from the physical register
file and compared against the functionally recorded values — any renaming
bug (wrong version woken, premature overwrite, bad recovery) trips an
assertion instead of silently skewing results.
"""

from __future__ import annotations

import heapq
from itertools import count, islice
from typing import Iterable, Iterator, Optional, Union

from repro.core.read_ports import make_port_scheme
from repro.core.renamer import BaseRenamer, Tag
from repro.core.sharing import SharingRenamer
from repro.frontend.branch_predictor import BranchUnit
from repro.frontend.fetch import FetchUnit, InstSource, IterSource
from repro.isa.dyninst import DynInst
from repro.isa.executor import (
    FirstTouchFaults,
    FunctionalExecutor,
    values_equal,
)
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.isa.registers import FP_REGS, INT_REGS, RegClass, RegRef
from repro.mem.hierarchy import MemoryHierarchy
from repro.pipeline.config import IQ_SIZE, MachineConfig
from repro.pipeline.functional_units import FUPool
from repro.pipeline.issue_queue import IssueQueue
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.stats import SimStats

#: cycles to flush the pipeline and redirect fetch to the handler
EXCEPTION_FLUSH_PENALTY = 20
#: cycles per shadow-cell recover command (one per restored map entry)
RECOVERY_CYCLES_PER_ENTRY = 1
#: cycles an asynchronous interrupt spends in its handler
INTERRUPT_HANDLER_CYCLES = 50


class VerificationError(AssertionError):
    """A renaming/dataflow verification check failed."""


class PipelineHang(RuntimeError):
    """The cycle-loop watchdog aborted the run (deadlock or cycle budget).

    The message carries a :meth:`Processor.diagnostic_snapshot` — ROB-head
    state, issue-queue occupancy, rename free-list counts — so a hang is
    debuggable from the exception alone (e.g. out of a sweep worker's
    captured traceback)."""


class Processor:
    """Cycle-level OoO core."""

    def __init__(
        self,
        config: MachineConfig,
        source: InstSource,
        on_cycle=None,
        on_cycle_interval: int = 128,
        on_commit=None,
        naive_loop: bool = False,
        branch_unit: Optional[BranchUnit] = None,
        hierarchy=None,
    ) -> None:
        self.config = config
        self.on_cycle = on_cycle
        self.on_cycle_interval = on_cycle_interval
        #: per-commit hook: called as on_commit(processor, dyn) for every
        #: committed ROB head (including micro-ops and HALT); the
        #: commit-time oracle and trace recorders attach here
        self.on_commit = on_commit
        # externally provided hierarchy / branch unit let the sampling
        # engine keep warmed caches and predictors alive across windows
        self.hierarchy = hierarchy if hierarchy is not None \
            else MemoryHierarchy()
        self.branch_unit = branch_unit if branch_unit is not None \
            else config.make_branch_unit()
        wrong_path = None
        if config.model_wrong_path:
            if config.scheme == "early":
                raise ValueError(
                    "early-release renaming cannot walk back wrong-path "
                    "renames; disable model_wrong_path")
            from repro.frontend.wrong_path import WrongPathGenerator

            wrong_path = WrongPathGenerator()
        self.fetch = FetchUnit(
            source,
            self.branch_unit,
            icache=self.hierarchy,
            fetch_width=config.fetch_width,
            wrong_path=wrong_path,
        )
        self.renamer: BaseRenamer = config.make_renamer()
        self._track_reads = self.renamer.tracks_operand_reads
        self.rob = ReorderBuffer(config.rob_size)
        self.iq = IssueQueue()
        self.lsq = LoadStoreQueue()
        self.fus = FUPool(config.fu_config)
        #: read-port-reduction scheme (repro.core.read_ports), or None
        self.read_ports = make_port_scheme(config)
        self.scoreboard: dict[Tag, bool] = {}
        self.completion: list[tuple[int, int, DynInst]] = []
        self._ticket = count()
        self.stats = SimStats()
        self.cycle = 0
        self._halted = False
        self._last_progress = 0
        #: quiet cycles elided by the generated kernel (observability only;
        #: deliberately kept out of SimStats so both loops produce
        #: bit-identical statistics)
        self.cycles_skipped = 0
        self._naive_loop = naive_loop
        #: which cycle loop run() actually used: "naive" | "generated"
        self.loop_used: Optional[str] = None

        for tag, value in self.renamer.initial_tags():
            self.scoreboard[tag] = True
            self.renamer.write(tag, value)

    # ------------------------------------------------------------------ helpers
    def is_ready(self, tag: Tag) -> bool:
        return self.scoreboard.get(tag, False)

    def architectural_state(self) -> tuple[list, list]:
        """Committed register state, read through the retirement map.

        Returns (int_regs, fp_regs); used by tests to compare against the
        in-order reference executor.
        """
        int_regs = [
            self.renamer.read(self.renamer.committed_tag(RegRef(RegClass.INT, i)))
            for i in range(INT_REGS)
        ]
        fp_regs = [
            self.renamer.read(self.renamer.committed_tag(RegRef(RegClass.FP, i)))
            for i in range(FP_REGS)
        ]
        return int_regs, fp_regs

    @property
    def _shadow_recovery(self) -> bool:
        return isinstance(self.renamer, SharingRenamer)

    def diagnostic_snapshot(self) -> str:
        """One-line-per-structure pipeline state dump for watchdog aborts."""
        head = self.rob.head()
        if head is None:
            head_line = "rob head: <empty>"
        else:
            head_line = (f"rob head: {head} completed={head.completed} "
                         f"exception={head.exception_raised} "
                         f"issue_cycle={head.issue_cycle}")
        completion_next = self.completion[0][0] if self.completion else None
        return "\n".join([
            f"cycle={self.cycle} committed={self.stats.committed} "
            f"last_progress={self._last_progress} halted={self._halted}",
            head_line,
            f"rob: {len(self.rob)}/{self.config.rob_size} occupied",
            f"iq: {len(self.iq)}/{IQ_SIZE} occupied, "
            f"{len(self.iq.ready_entries())} ready",
            f"fetch: queue={len(self.fetch.queue)} eof={self.fetch.eof}",
            f"free regs: int={self.renamer.free_registers(RegClass.INT)} "
            f"fp={self.renamer.free_registers(RegClass.FP)}",
            f"completion heap: {len(self.completion)} pending, "
            f"next due cycle {completion_next}",
        ])

    def _watchdog_abort(self, reason: str) -> None:
        raise PipelineHang(f"{reason}\n{self.diagnostic_snapshot()}")

    def inject_flush(self) -> int:
        """Fault injection: force a precise flush + recovery right now.

        Equivalent to an exception arriving at the commit boundary:
        everything in flight is squashed, rename state recovers from the
        retirement map, and the squashed instructions re-fetch in order.
        Used by the squash-storm injector (:mod:`repro.faults.injectors`);
        only call between cycles (from an ``on_cycle`` hook: every loop
        runs a hook's cycle for real, with its statistics up to date).
        Returns the penalty charged.
        """
        return self._flush_and_replay(EXCEPTION_FLUSH_PENALTY)

    # ------------------------------------------------------------------ main loop
    def run(self, max_insts: Optional[int] = None) -> SimStats:
        kernel = None
        if not self._naive_loop:
            # None only for a scheme without a kernel (early, hinted);
            # generation errors propagate
            from repro.codegen import kernel_for

            kernel = kernel_for(self.config)
        if kernel is None:
            self.loop_used = "naive"
            self._run_naive(max_insts)
        else:
            self.loop_used = "generated"
            self._run_generated(kernel, max_insts)
        self._finalize()
        # final unconditional invariant check: the interval hook only fires
        # every on_cycle_interval cycles, so corruption in the trailing
        # (interval - 1) cycles would otherwise escape unchecked
        if self.on_cycle is not None and self.cycle % self.on_cycle_interval != 0:
            self.on_cycle(self)
        return self.stats

    def _run_naive(self, max_insts: Optional[int]) -> None:
        """The reference cycle loop: every stage, every cycle.

        The differential baseline for the generated kernel (select it with
        ``naive_loop=True``) and the loop of the schemes that have no
        kernel (:func:`repro.codegen.kernel_for` returns None); both loops
        must produce bit-identical :class:`SimStats`.
        """
        interrupt_interval = self.config.interrupt_interval
        next_interrupt = interrupt_interval if interrupt_interval else None
        while not self._done(max_insts):
            self.cycle += 1
            if next_interrupt is not None and self.cycle >= next_interrupt:
                penalty = self._handle_interrupt()
                # the next interrupt is scheduled after the handler returns,
                # so forward progress is guaranteed
                next_interrupt = self.cycle + interrupt_interval + penalty
            self._commit()
            self._writeback()
            self._issue()
            self._rename()
            self.fetch.tick(self.cycle)
            stats = self.stats
            stats.rob_occupancy_sum += len(self.rob)
            stats.iq_occupancy_sum += len(self.iq)
            stats.free_regs_sum += self.renamer.free_registers(RegClass.INT)
            stats.occupancy_samples += 1
            if self.on_cycle is not None and self.cycle % self.on_cycle_interval == 0:
                self.on_cycle(self)
            if self.cycle > self.config.max_cycles:
                self._watchdog_abort(
                    f"cycle budget ({self.config.max_cycles}) exceeded")
            if self.cycle - self._last_progress > 200_000:
                self._watchdog_abort(
                    f"pipeline deadlock: no progress for "
                    f"{self.cycle - self._last_progress} cycles")

    def _run_generated(self, kernel, max_insts: Optional[int]) -> None:
        """Run the code-generated kernel for this (scheme, config) pair.

        Exceptions raised while a kernel is running propagate: simulated
        state may be mid-cycle, so retrying on the naive loop would be
        wrong.
        """
        # the kernel allocates heavily but creates no reference cycles on
        # its hot paths; pausing the cyclic collector is worth a few
        # percent and cannot change simulated behavior
        import gc
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            kernel(self, max_insts)
        finally:
            if was_enabled:
                gc.enable()

    def _done(self, max_insts: Optional[int]) -> bool:
        if self._halted:
            return True
        if max_insts is not None and self.stats.committed >= max_insts:
            return True
        return self.fetch.eof and len(self.rob) == 0

    def _finalize(self) -> None:
        stats = self.stats
        stats.cycles = self.cycle
        stats.renamer_stats = self.renamer.stats
        stats.branch_stats = self.branch_unit.stats
        if isinstance(self.renamer, SharingRenamer):
            stats.predictor_stats = self.renamer.predictor.stats
        stats.cache_stats = {
            "l1d": self.hierarchy.l1d.stats,
            "l1i": self.hierarchy.l1i.stats,
            "l2": self.hierarchy.l2.stats,
            "tlb": self.hierarchy.tlb.stats,
            "dram": self.hierarchy.dram.stats,
        }

    # ------------------------------------------------------------------ commit
    def _commit(self) -> None:
        committed = 0
        while committed < self.config.commit_width:
            head = self.rob.head()
            if head is None or not head.completed:
                return
            if head.exception_raised:
                self._handle_exception(head)
                return
            if head.wrong_path:
                raise AssertionError(
                    "wrong-path instruction reached commit: the mispredicted "
                    "branch must have resolved (and squashed it) first")
            self.rob.pop_head()
            head.commit_cycle = self.cycle
            if head.info.is_store:
                self.hierarchy.data_access(head.pc, head.mem_addr, True, self.cycle)
                self.lsq.retire(head)
                self.stats.stores += 1
            elif head.info.is_load:
                self.lsq.retire(head)
                self.stats.loads += 1
            self.renamer.commit(head)
            if head.micro_op:
                self.stats.committed_uops += 1
            else:
                self.stats.committed += 1
            if self.on_commit is not None:
                self.on_commit(self, head)
            if head.op is Op.HALT:
                self._halted = True
                return
            committed += 1
            self._last_progress = self.cycle

    # ------------------------------------------------------------------ exceptions
    def _flush_and_replay(self, base_penalty: int) -> int:
        """Precise flush at the commit boundary: squash everything in
        flight, recover rename state, re-fetch in order.  Returns the
        total penalty charged."""
        replay = [d for d in self.rob.drain()
                  if not d.micro_op and not d.wrong_path]
        replay.extend(d for d in self.fetch.queue
                      if not d.micro_op and not d.wrong_path)
        for dyn in replay:
            dyn.reset_pipeline_state()

        diff = self.renamer.recover()
        penalty = base_penalty
        if self._shadow_recovery:
            penalty += diff * RECOVERY_CYCLES_PER_ENTRY
        self.stats.recovery_cycles += penalty

        self.iq.flush()
        self.lsq.flush()
        self.fus.flush()
        if self.read_ports is not None:
            self.read_ports.flush()
        self.completion.clear()
        self._rebuild_scoreboard()
        self.fetch.inject_replay(replay, self.cycle, penalty)
        self._last_progress = self.cycle
        return penalty

    def _handle_exception(self, head: DynInst) -> None:
        self.stats.exceptions += 1
        # the handler services the fault: the replayed instruction succeeds
        head.faults = False
        self._flush_and_replay(EXCEPTION_FLUSH_PENALTY)

    def _squash_wrong_path(self, branch: DynInst) -> int:
        """The mispredicted branch resolved: walk back everything younger.

        With wrong-path modelling, every ROB entry younger than the branch
        is wrong-path (correct-path fetch stopped at the misprediction).
        Returns the extra recovery cycles (shadow-cell restores).
        """
        squashed = self.rob.pop_younger_than(branch)
        for dyn in squashed:
            dyn.squashed = True
            self.iq.discard(dyn)
            if dyn.info.is_mem:
                self.lsq.discard(dyn)
            if dyn.dest_tag is not None:
                self.scoreboard.pop(dyn.dest_tag, None)
        restores = self.renamer.squash_to(squashed)
        extra = restores * RECOVERY_CYCLES_PER_ENTRY
        self.stats.recovery_cycles += extra
        self.stats.wrong_path_squashed += len(squashed)
        self._last_progress = self.cycle
        return extra

    def _handle_interrupt(self) -> int:
        """Asynchronous interrupt at the commit boundary (Section IV-B)."""
        self.stats.interrupts += 1
        return self._flush_and_replay(
            EXCEPTION_FLUSH_PENALTY + INTERRUPT_HANDLER_CYCLES)

    def _rebuild_scoreboard(self) -> None:
        self.scoreboard = {}
        for idx in range(INT_REGS):
            tag = self.renamer.committed_tag(RegRef(RegClass.INT, idx))
            self.scoreboard[tag] = True
        for idx in range(FP_REGS):
            tag = self.renamer.committed_tag(RegRef(RegClass.FP, idx))
            self.scoreboard[tag] = True

    # ------------------------------------------------------------------ writeback
    def _writeback(self) -> None:
        completion = self.completion
        if not completion or completion[0][0] > self.cycle:
            return  # nothing completes this cycle: stay allocation-free
        ports = self.read_ports
        while self.completion and self.completion[0][0] <= self.cycle:
            _, _, dyn = heapq.heappop(self.completion)
            if dyn.squashed:
                continue
            dyn.completed = True
            dyn.complete_cycle = self.cycle
            if dyn.dest_tag is not None:
                if dyn.result is not None:
                    self.renamer.write(dyn.dest_tag, dyn.result)
                self.scoreboard[dyn.dest_tag] = True
                if ports is not None:
                    ports.note_writeback(dyn.dest_tag, self.cycle)
                self.iq_wakeup(dyn.dest_tag)
            if dyn.info.is_branch:
                extra = 0
                if dyn.mispredicted and not dyn.wrong_path \
                        and self.config.model_wrong_path:
                    extra = self._squash_wrong_path(dyn)
                self.fetch.branch_resolved(dyn, self.cycle, extra)
            self._last_progress = self.cycle

    def iq_wakeup(self, tag: Tag) -> None:
        self.iq.wakeup(tag)

    # ------------------------------------------------------------------ issue
    def _issue(self) -> None:
        ready = self.iq.ready_entries()
        if not ready:
            return
        issued = 0
        issue_width = self.config.issue_width
        ports = self.read_ports
        if ports is not None:
            ports.begin_cycle(self.cycle)
        for dyn in ready:
            if issued >= issue_width:
                break
            info = dyn.info
            if info.is_load and not dyn.faults and not self.lsq.load_can_issue(dyn):
                continue
            if ports is not None:
                plan = ports.plan(dyn, self.cycle)
                if plan is None:
                    self.stats.rf_port_stalls += 1
                    continue  # bank/port conflict beyond the delay window
            latency = self.fus.try_issue(info.fu, self.cycle)
            if latency is None:
                continue
            if ports is not None:
                port_delay = ports.commit(plan, self.stats)

            if dyn.faults:
                total = latency
                dyn.exception_raised = True
            elif info.is_load:
                forwarding = self.lsq.forwarding_store(dyn)
                if forwarding is not None:
                    total = latency + 1
                    self.stats.store_forwards += 1
                else:
                    total = latency + self.hierarchy.data_access(
                        dyn.pc, dyn.mem_addr, False, self.cycle
                    )
                self.lsq.mark_issued(dyn)
            elif info.is_store:
                total = latency  # address generation; data written at commit
                self.lsq.mark_issued(dyn)
            else:
                total = latency
            if ports is not None:
                total += port_delay  # delayed banked reads (arbiter)

            if self.config.verify_values:
                self._verify_operands(dyn)
            if self._track_reads:
                for tag in dyn.src_tags:
                    self.renamer.on_operand_read(tag)

            self.iq.remove(dyn)
            dyn.issue_cycle = self.cycle
            heapq.heappush(self.completion, (self.cycle + total, next(self._ticket), dyn))
            self.stats.issued += 1
            issued += 1
            self._last_progress = self.cycle

    def _verify_operands(self, dyn: DynInst) -> None:
        if dyn.wrong_path:
            return  # wrong-path inputs are meaningless by construction
        for ref, tag, expected in zip(dyn.srcs, dyn.src_tags, dyn.src_values):
            if expected is None:
                continue
            actual = self.renamer.read(tag)
            if not values_equal(actual, expected):
                raise VerificationError(
                    f"operand mismatch at {dyn}: {ref} renamed to {tag} "
                    f"reads {actual!r}, expected {expected!r}"
                )

    # ------------------------------------------------------------------ rename
    def _rename(self) -> None:
        dispatched = 0
        while dispatched < self.config.rename_width:
            dyn = self.fetch.peek()
            if dyn is None:
                return
            # worst case group: two repaired sources (3 µops each) + dyn
            if self.rob.free_slots >= 7 and self.iq.free_slots >= 7:
                slots = 1  # plenty of room; rename() sizes the real group
            else:
                uops = self.renamer.uops_needed(dyn, self.is_ready)
                slots = uops + 1
                if self.rob.free_slots < slots:
                    self.stats.rename_stall_rob += 1
                    return
                if self.iq.free_slots < slots:
                    self.stats.rename_stall_iq += 1
                    return
            if dyn.info.is_mem and not self.lsq.can_insert(dyn):
                self.stats.rename_stall_lsq += 1
                return
            if not self.renamer.can_rename(dyn):
                self.stats.rename_stall_regs += 1
                return
            self.fetch.pop()
            group = self.renamer.rename(dyn, self.is_ready)
            for renamed in group:
                renamed.rename_cycle = self.cycle
                if renamed.dest_tag is not None:
                    self.scoreboard[renamed.dest_tag] = False
                self.rob.push(renamed)
                self.iq.insert(renamed, self.is_ready)
                if renamed.info.is_mem:
                    self.lsq.insert(renamed)
            dispatched += len(group)  # repair µops occupy dispatch slots
            self._last_progress = self.cycle


def program_stream(
    config: MachineConfig,
    program: Program,
    fault_model: Optional[FirstTouchFaults] = None,
    budget: int = 10_000_000,
) -> tuple[Iterator[DynInst], FunctionalExecutor]:
    """The dynamic instruction stream of ``program``, and its executor.

    This is the one way a :class:`Program` becomes pipeline input: the
    functional executor runs it (at most ``budget`` instructions), and
    under the ``hinted`` scheme the stream carries the lookahead hints of
    :func:`~repro.workloads.lookahead.annotate_hints`.  The executor's
    ``state`` is what a program-mode oracle compares the final memory
    image against.
    """
    executor = FunctionalExecutor(program, fault_model=fault_model)
    stream = executor.run(budget)
    if config.scheme == "hinted":
        from repro.workloads.lookahead import annotate_hints

        stream = annotate_hints(stream)
    return stream, executor


def simulate(
    config: MachineConfig,
    workload: Union[Program, Iterable[DynInst]],
    max_insts: Optional[int] = None,
    program_budget: int = 10_000_000,
    sampling=None,
    sampling_seed: int = 1,
) -> SimStats:
    """Run one simulation and return its statistics.

    ``workload`` may be an assembled :class:`Program`, executed
    functionally by :func:`program_stream` (so a run under the ``hinted``
    scheme gets lookahead hints), or any iterable of :class:`DynInst`
    (e.g. a workload generator).  The run is unchecked; for the same run
    with the commit-time differential oracle attached use
    :func:`repro.verify.oracle.lockstep_run`.

    ``sampling`` selects interval-sampled simulation: a
    :class:`~repro.sampling.SamplingSchedule` or a ``"P:W:U"`` spec
    string.  The run then returns a
    :class:`~repro.pipeline.stats.SampledStats` estimate instead of exact
    :class:`SimStats`; ``sampling_seed`` seeds the schedule's random
    phase offset.  A sampled run fast-forwards over trace columns: a
    :class:`~repro.harness.cache.TraceStream` gives its own, and any
    other stream (a program's included) is first encoded whole, at most
    ``max_insts`` instructions of it.  That holds the encoded trace and
    its columns in memory (about 350 B per instruction) and spends about
    6 µs per instruction encoding and parsing them.
    """
    if isinstance(workload, Program):
        workload, _ = program_stream(config, workload, budget=program_budget)
    if sampling is not None:
        from repro.harness.cache import TraceStream
        from repro.sampling import as_schedule, sampled_simulate

        if isinstance(workload, TraceStream):
            cols = workload.columns()
        else:
            from repro.workloads.trace_codec import TraceColumns, encode

            cols = TraceColumns(encode(islice(workload, max_insts)))
        return sampled_simulate(
            config, cols, schedule=as_schedule(sampling, seed=sampling_seed),
            total_insts=max_insts)
    return Processor(config, IterSource(workload)).run(max_insts=max_insts)

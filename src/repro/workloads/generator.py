"""Statistical workload generator.

Builds a fixed pseudo-static *skeleton* — ``n_bodies`` loop bodies of
``body_size`` static instruction slots each — and then walks it, emitting
:class:`~repro.isa.dyninst.DynInst` streams.  Because the skeleton is
fixed:

* every dynamic instance of a slot has the same PC, so the branch
  predictor, BTB and the paper's PC-indexed register-type predictor see
  realistic stable streams;
* the register-dependence structure (consumer counts, single-use chains,
  redefinition patterns) is wired at build time from the benchmark
  profile, so the measured Figure 1/2/3 statistics track the profile's
  targets.

Values are verification tokens: each produced value is the producing
instruction's sequence number, and consumers record the token they must
observe — the pipeline's issue-time operand check then catches any
renaming corruption, in trace mode exactly as in functional mode.

Conditional branches inside a body are *hammocks* (taken target equals
the fall-through), so sampled directions exercise the branch predictor
without changing the executed path; each body ends in a back-edge that is
taken for the body's iteration count, and the skeleton ends with a jump
back to the first body.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from repro.isa.dyninst import DynInst
from repro.isa.opcodes import Op
from repro.isa.registers import RegClass, RegRef, freg, xreg
from repro.workloads.profiles import WorkloadProfile

# register conventions inside generated code (per class):
#   index 0..24   value registers managed by the builder
#   index 25      loop counter (int only)
#   index 26, 27  accumulators
#   index 28      memory base (int only)
#   index 30      immortal constant (fallback source)
_VALUE_REGS = range(1, 25)
_COUNTER = 25
_ACCUMULATORS = (26, 27)
_BASE = 28
_CONST = 30


@dataclass
class _Slot:
    """One static instruction slot of the skeleton."""

    pc: int
    op: Op
    dest: Optional[RegRef]
    srcs: tuple[RegRef, ...]
    mem: Optional[tuple] = None  # ('stream', base, stride) | ('random',)
    branch: Optional[tuple] = None  # ('hammock', p_taken) | ('backedge',) | ('wrap',)
    target: Optional[int] = None
    #: oracle hints: per-source "this is the value's only consumption"
    src_single: tuple = ()
    #: oracle hint: the produced value has exactly one planned consumer
    dest_single: bool = False
    #: oracle hint: forward chain depth of the produced value (how many
    #: same-register reuses follow), used for bank placement
    dest_depth: int = 0


@dataclass
class _Live:
    reg: RegRef
    uses_left: int
    chain: bool
    chain_len: int = 0  # reuse-chain depth of the backing register so far
    total_uses: int = 1  # planned consumer count (oracle hints)
    producer_slot: int = -1  # slot index that produced this value


class _BodyBuilder:
    """Wires one loop body's slots according to the profile."""

    def __init__(self, profile: WorkloadProfile, rng: random.Random, base_pc: int) -> None:
        self.profile = profile
        self.rng = rng
        self.base_pc = base_pc
        self.live: dict[RegRef, _Live] = {}
        self.recent: list[RegRef] = []
        self.slots: list[_Slot] = []
        #: chain edges: producer slot -> consuming (redefining) slot
        self._chain_edges: dict[int, int] = {}
        self._consumer_keys = list(profile.consumer_dist.keys())
        self._consumer_weights = list(profile.consumer_dist.values())

    # ------------------------------------------------------------- sources
    def _pick_source(self, cls: RegClass) -> tuple[RegRef, Optional[_Live], bool]:
        candidates = [rec for rec in self.live.values() if rec.reg.cls is cls]
        if not candidates:
            const = xreg(_CONST) if cls is RegClass.INT else freg(_CONST)
            return const, None, False
        rng = self.rng
        recent = [rec for rec in candidates if rec.reg in self.recent[-6:]]
        pool = recent if recent and rng.random() < self.profile.locality else candidates
        rec = rng.choice(pool)
        rec.uses_left -= 1
        single_use = rec.total_uses == 1 and rec.uses_left == 0
        chained: Optional[_Live] = None
        if rec.uses_left <= 0:
            del self.live[rec.reg]
            if rec.chain:
                chained = rec
        return rec.reg, chained, single_use

    def _free_register(self, cls: RegClass) -> RegRef:
        make = xreg if cls is RegClass.INT else freg
        for idx in _VALUE_REGS:
            reg = make(idx)
            if reg not in self.live:
                return reg
        # pool exhausted: truncate the value with the fewest remaining uses
        victim = min(
            (rec for rec in self.live.values() if rec.reg.cls is cls),
            key=lambda rec: rec.uses_left,
            default=None,
        )
        if victim is None:
            return make(_VALUE_REGS[0] if isinstance(_VALUE_REGS, list) else 1)
        del self.live[victim.reg]
        return victim.reg

    def _plan_dest(self, cls: RegClass, chained: Optional[_Live]) -> RegRef:
        rng = self.rng
        slot_index = len(self.slots)  # the slot about to be emitted
        chain_len = 0
        if chained is not None and chained.reg.cls is cls:
            dest = chained.reg  # single-use chain: redefine the same register
            chain_len = chained.chain_len + 1
            if chained.producer_slot >= 0:
                self._chain_edges[chained.producer_slot] = slot_index
        else:
            dest = self._free_register(cls)
        count = rng.choices(self._consumer_keys, self._consumer_weights)[0]
        if count >= 6:
            count = rng.randint(6, 8)
        # long reuse chains are rare in real code (paper Fig. 3: "chains of
        # more than four instructions are unusual") — damp extension
        extend_prob = self.profile.chain_frac * (0.2 if chain_len >= 3 else 1.0)
        chain = count == 1 and rng.random() < extend_prob
        self.live[dest] = _Live(dest, count, chain, chain_len, total_uses=count,
                                producer_slot=slot_index)
        self.recent.append(dest)
        if len(self.recent) > 12:
            self.recent.pop(0)
        return dest

    # ------------------------------------------------------------- slot kinds
    def _emit(self, op, dest, srcs, **kw) -> None:
        self.slots.append(
            _Slot(pc=self.base_pc + len(self.slots), op=op, dest=dest, srcs=srcs, **kw)
        )

    def _value_op(self) -> None:
        profile, rng = self.profile, self.rng
        cls = RegClass.FP if rng.random() < profile.fp_frac else RegClass.INT
        if cls is RegClass.INT:
            r = rng.random()
            if r < profile.div_frac / max(1e-9, 1 - profile.fp_frac):
                op = Op.DIV
            elif r < (profile.div_frac + profile.mul_frac) / max(1e-9, 1 - profile.fp_frac):
                op = Op.MUL
            else:
                op = rng.choice((Op.ADD, Op.SUB, Op.AND, Op.XOR, Op.OR))
        else:
            op = Op.FDIV if rng.random() < profile.fpdiv_frac else \
                rng.choice((Op.FADD, Op.FMUL, Op.FSUB))
        a, chained_a, single_a = self._pick_source(cls)
        b, chained_b, single_b = self._pick_source(cls)
        if rng.random() < 0.08:
            # three-source instruction (fmadd / csel): extra operand traffic
            op3 = Op.FMADD if cls is RegClass.FP else Op.CSEL
            c, chained_c, single_c = self._pick_source(cls)
            dest = self._plan_dest(cls, chained_a or chained_b or chained_c)
            self._emit(op3, dest, (a, b, c),
                       src_single=(single_a, single_b, single_c),
                       dest_single=self.live[dest].total_uses == 1)
            return
        dest = self._plan_dest(cls, chained_a or chained_b)
        self._emit(op, dest, (a, b), src_single=(single_a, single_b),
                   dest_single=self.live[dest].total_uses == 1)

    def _load(self) -> None:
        profile, rng = self.profile, self.rng
        cls = RegClass.FP if rng.random() < profile.fp_frac else RegClass.INT
        op = Op.FLD if cls is RegClass.FP else Op.LD
        dest = self._plan_dest(cls, None)
        mem = self._mem_pattern()
        self._emit(op, dest, (xreg(_BASE),), mem=mem,
                   dest_single=self.live[dest].total_uses == 1)

    def _store(self) -> None:
        profile, rng = self.profile, self.rng
        cls = RegClass.FP if rng.random() < profile.fp_frac else RegClass.INT
        op = Op.FST if cls is RegClass.FP else Op.ST
        if rng.random() < 0.3:
            # spill an accumulator: its loop-carried values get a second
            # consumer, so they do not form endless single-use chains
            make = xreg if cls is RegClass.INT else freg
            value: RegRef = make(_ACCUMULATORS[1])
            self._emit(op, None, (value, xreg(_BASE)), mem=self._mem_pattern())
            return
        value, _chained, single = self._pick_source(cls)
        self._emit(op, None, (value, xreg(_BASE)), mem=self._mem_pattern(),
                   src_single=(single, False))

    def _mem_pattern(self) -> tuple:
        rng = self.rng
        if rng.random() < self.profile.stream_frac:
            base = rng.randrange(0, self.profile.working_set, 64)
            stride = rng.choice((8, 8, 64))
            return ("stream", base, stride)
        return ("random",)

    def _hammock_branch(self) -> None:
        if self.rng.random() < 0.4:
            # loop-exit-style test of an accumulator: gives accumulator
            # values a second consumer, so they are not single-use chains
            src = xreg(_ACCUMULATORS[0])
        else:
            src, _chained, _single = self._pick_source(RegClass.INT)
        if self.rng.random() < self.profile.hard_branch_frac:
            p_taken = 0.5
        else:
            p_taken = self.rng.choice((0.02, 0.05, 0.95))
        self._emit(Op.BNEZ, None, (src,), branch=("hammock", p_taken))

    def _accumulator(self, idx: int) -> None:
        cls = RegClass.INT if idx % 2 == 0 else (
            RegClass.FP if self.profile.fp_frac > 0 else RegClass.INT
        )
        make = xreg if cls is RegClass.INT else freg
        acc = make(_ACCUMULATORS[idx % 2])
        other, _chained, single = self._pick_source(cls)
        op = Op.ADD if cls is RegClass.INT else Op.FADD
        # the accumulator redefines itself (guaranteed-reuse path, no
        # prediction needed, no repair risk) -> optimistic dest hint
        self._emit(op, acc, (acc, other), src_single=(False, single),
                   dest_single=True)

    # ------------------------------------------------------------- build
    def build(self, body_size: int) -> list[_Slot]:
        profile, rng = self.profile, self.rng
        n_value_slots = body_size - 2  # counter update + back-edge
        acc_positions = {
            (i + 1) * n_value_slots // (profile.accumulators * 2 + 1)
            for i in range(profile.accumulators * 2)
        }
        for position in range(n_value_slots):
            if position in acc_positions:
                self._accumulator(position)
                continue
            r = rng.random()
            if r < profile.branch_frac:
                self._hammock_branch()
            elif r < profile.branch_frac + profile.load_frac:
                self._load()
            elif r < profile.branch_frac + profile.load_frac + profile.store_frac:
                self._store()
            else:
                self._value_op()
        # loop counter decrement + back-edge
        counter = xreg(_COUNTER)
        self._emit(Op.ADDI, counter, (counter,))
        self._emit(Op.BNEZ, None, (counter,), branch=("backedge",),
                   target=self.base_pc)
        self._assign_chain_depths()
        return self.slots

    def _assign_chain_depths(self) -> None:
        """Second pass: forward chain depth per producing slot (oracle
        bank-placement hint: a register hosting a depth-d chain needs d
        shadow cells)."""
        depth = [0] * len(self.slots)
        for producer in sorted(self._chain_edges, reverse=True):
            child = self._chain_edges[producer]  # local slot indices
            depth[producer] = min(3, 1 + depth[child])
        for index, slot in enumerate(self.slots):
            slot.dest_depth = depth[index]


class _BodyColumns(NamedTuple):
    """One loop body's static trace columns, computed once per skeleton.

    ``flags``/``next_pcs`` are for an iteration whose back-edge is taken;
    ``last_flags``/``last_next_pcs`` for the body's last iteration.  The
    ``*_end`` lists map a slot count ``k`` to the length of the sparse
    column's first ``k`` slots, so every body iteration appends a
    ``k``-slot prefix of the same columns (all of them but a stream's
    last).  ``slots`` holds each slot's dynamic
    facts: (source register bytes, dest register byte or -1, memory
    pattern, is-store, hammock taken probability or None); ``zeros`` maps
    each source register byte to the value of an unwritten register.
    """

    ops: bytes
    flags: bytes
    last_flags: bytes
    pcs: list
    next_pcs: list
    last_next_pcs: list
    dests: bytes
    src_counts: bytes
    src_regs: bytes
    src_end: list
    targets: list
    target_end: list
    hsrcs: bytes
    hsrc_end: list
    hdepths: list
    hdepth_end: list
    imm_offsets: list
    slots: list
    zeros: dict


def _body_columns(body: list) -> _BodyColumns:
    from repro.workloads import trace_codec as codec

    ops, flags, last_flags, dests = (bytearray() for _ in range(4))
    src_counts, src_regs, hsrcs = bytearray(), bytearray(), bytearray()
    pcs, next_pcs, last_next_pcs, targets, hdepths = [], [], [], [], []
    src_end, target_end, hsrc_end, hdepth_end = [0], [0], [0], [0]
    imm_offsets, slots, zeros = [], [], {}
    for offset, slot in enumerate(body):
        op, flag, dest, sources, pair = codec.static_columns(
            slot.op, slot.dest, slot.srcs, slot.src_single, slot.dest_single,
            slot.dest_depth, slot.branch is not None)
        ops.append(op)
        dests.append(dest)
        src_counts.append(len(sources))
        src_regs += sources
        hsrcs += pair
        if slot.dest_depth:
            hdepths.append(slot.dest_depth)
        fall_through = slot.pc + 1
        pcs.append(slot.pc)
        last_flags.append(flag)
        last_next_pcs.append(fall_through)
        p_taken = None
        if slot.branch is None:
            flags.append(flag)
            next_pcs.append(fall_through)
        elif slot.branch[0] == "hammock":
            p_taken = slot.branch[1]
            flags.append(flag)
            next_pcs.append(fall_through)
            targets.append(fall_through)
        else:  # backedge: taken on every iteration but the last
            flags.append(flag | codec.F_TAKEN)
            next_pcs.append(slot.target)
            targets.append(slot.target)
        if slot.op is Op.ADDI:
            imm_offsets.append(offset)
        src_end.append(len(src_regs))
        target_end.append(len(targets))
        hsrc_end.append(len(hsrcs))
        hdepth_end.append(len(hdepths))
        slots.append((sources, -1 if slot.dest is None else dest, slot.mem,
                      slot.op in (Op.ST, Op.FST), p_taken))
        for ref, byte in zip(slot.srcs, sources):
            zeros[byte] = 0 if ref.cls is RegClass.INT else 0.0
    return _BodyColumns(bytes(ops), bytes(flags), bytes(last_flags), pcs,
                        next_pcs, last_next_pcs, bytes(dests),
                        bytes(src_counts), bytes(src_regs), src_end, targets,
                        target_end, bytes(hsrcs), hsrc_end, hdepths,
                        hdepth_end, imm_offsets, slots, zeros)


class SyntheticWorkload:
    """Iterable of DynInst implementing one benchmark profile.

    Deterministic for a given (profile, seed).  ``body_iters`` controls
    how many times each loop body runs before moving to the next;
    iteration cycles across bodies until ``total_insts`` are emitted.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        total_insts: int = 50_000,
        seed: int = 1,
        body_iters: int = 50,
    ) -> None:
        """Build the skeleton (the loop bodies); the stream itself is
        produced by :meth:`__iter__` or :meth:`trace_bytes`.  The
        benchmark's traced run wraps this method by name as skeleton
        generation time."""
        self.profile = profile
        self.total_insts = total_insts
        self.seed = seed
        self.body_iters = body_iters
        # stable across processes (str hash is salted; crc32 is not)
        rng = random.Random(seed * 1_000_003 + zlib.crc32(profile.name.encode()))
        self.bodies: list[list[_Slot]] = []
        pc = 0
        for _body in range(profile.n_bodies):
            builder = _BodyBuilder(profile, rng, pc)
            slots = builder.build(profile.body_size)
            self.bodies.append(slots)
            pc += len(slots)
        self.wrap_pc = pc  # final jump back to pc 0

    def __iter__(self) -> Iterator[DynInst]:
        """Stream the instructions one :class:`DynInst` at a time.

        The streaming producer for uncached runs (``repro bench``, the
        analysis figures); the trace cache uses :meth:`trace_bytes`,
        which must stay byte-identical to encoding this stream
        (``tests/test_workload_generator.py`` pins the two loops
        together).  The benchmark's traced run wraps this
        method by name."""
        rng = random.Random(self.seed ^ 0x5EED)
        reg_values: dict[RegRef, object] = {}
        seq = 0
        emitted = 0
        stream_iter = 0

        def value_of(ref: RegRef):
            zero = 0 if ref.cls is RegClass.INT else 0.0
            return reg_values.get(ref, zero)

        while emitted < self.total_insts:
            for body_index, body in enumerate(self.bodies):
                body_start = body[0].pc
                for iteration in range(self.body_iters):
                    last_iteration = iteration == self.body_iters - 1
                    for slot in body:
                        dyn = DynInst(
                            seq=seq,
                            pc=slot.pc,
                            op=slot.op,
                            dest=slot.dest,
                            srcs=slot.srcs,
                            src_values=tuple(value_of(s) for s in slot.srcs),
                            hint_src_single_use=slot.src_single,
                            hint_dest_single_use=slot.dest_single,
                        )
                        dyn.hint_reuse_depth = slot.dest_depth
                        if slot.dest is not None:
                            dyn.result = seq + 1  # unique token
                            reg_values[slot.dest] = dyn.result
                        if slot.op is Op.ADDI:
                            dyn.imm = -1
                        if slot.mem is not None:
                            dyn.mem_addr = self._address(slot, stream_iter, rng)
                            if slot.op in (Op.ST, Op.FST):
                                dyn.store_value = dyn.src_values[0]
                        if slot.branch is not None:
                            kind = slot.branch[0]
                            if kind == "hammock":
                                dyn.taken = rng.random() < slot.branch[1]
                                dyn.target = slot.pc + 1
                                dyn.next_pc = slot.pc + 1
                            else:  # backedge
                                dyn.taken = not last_iteration
                                dyn.target = slot.target
                                dyn.next_pc = slot.target if dyn.taken else slot.pc + 1
                        else:
                            dyn.next_pc = slot.pc + 1
                        seq += 1
                        emitted += 1
                        yield dyn
                        if emitted >= self.total_insts:
                            return
                    stream_iter += 1
                # wrap jump after the last body falls through
                if body_index == len(self.bodies) - 1:
                    wrap = DynInst(
                        seq=seq, pc=self.wrap_pc, op=Op.JMP, taken=True,
                        target=0, next_pc=0,
                    )
                    seq += 1
                    emitted += 1
                    yield wrap

    def trace_bytes(self) -> bytes:
        """The stream's columnar trace, built without instruction objects.

        Byte-identical to ``trace_codec.encode(list(self))``: it walks
        the skeleton as :meth:`__iter__` does, draws from the same RNG in
        the same order (a random address's ``randrange``, a hammock's
        ``random``, slot by slot) and stops at the same instruction,
        including the wrap jump after the last body.  Each body's static
        columns are computed once (:func:`_body_columns`) and appended a
        body iteration at a time; only operand values, results, addresses
        and hammock directions are produced per instruction.  The trace
        cache stores these bytes when it misses.
        """
        # imported here: a streaming run, which never emits columns,
        # does not load the codec
        from repro.workloads import trace_codec as codec

        out = codec.ColumnWriter()
        ops, flags, seqs, pcs = out.ops, out.flags, out.seqs, out.pcs
        next_pcs, dests, targets = out.next_pcs, out.dests, out.targets
        src_counts, src_regs = out.src_counts, out.src_regs
        hsrcs, hdepths, sv_counts = out.hsrcs, out.hdepths, out.sv_counts
        imm_index, imm_tags, imm_values = out.imms[:3]
        mem_index, mem_tags, mem_values = out.mem_addrs[:3]
        store_index, store_tags, store_i64s, store_f64s = out.store_values[:4]
        result_index, result_tags, result_values = out.results[:3]
        sv_tags, sv_i64s, sv_f64s = out.src_values[1:4]
        sv_tag, sv_i64, sv_f64 = sv_tags.append, sv_i64s.append, sv_f64s.append
        i64, f64, taken_bit = codec.T_I64, codec.T_F64, codec.F_TAKEN
        working_set = self.profile.working_set
        body_iters = self.body_iters
        columns = [_body_columns(body) for body in self.bodies]
        last_body = len(columns) - 1
        wrap_op, wrap_flag, no_reg = codec.static_columns(
            Op.JMP, None, (), (), False, 0, True)[:3]
        rng = random.Random(self.seed ^ 0x5EED)
        draw, randrange = rng.random, rng.randrange
        # value by register byte: an unwritten register reads as its
        # class's zero, a written one as its producer's token
        values: list = [None] * 256
        for body in columns:
            for reg, zero in body.zeros.items():
                values[reg] = zero
        remaining = self.total_insts
        seq = 0
        stream_iter = 0
        while remaining > 0:
            for body_index, body in enumerate(columns):
                n = len(body.ops)
                for iteration in range(body_iters):
                    last = iteration == body_iters - 1
                    k = n if remaining >= n else remaining
                    base = seq
                    ops += body.ops[:k]
                    flags += (body.last_flags if last else body.flags)[:k]
                    pcs += body.pcs[:k]
                    next_pcs += (body.last_next_pcs if last
                                 else body.next_pcs)[:k]
                    dests += body.dests[:k]
                    src_counts += body.src_counts[:k]
                    src_regs += body.src_regs[:body.src_end[k]]
                    targets += body.targets[:body.target_end[k]]
                    hsrcs += body.hsrcs[:body.hsrc_end[k]]
                    hdepths += body.hdepths[:body.hdepth_end[k]]
                    seqs += range(base, base + k)
                    sv_counts += body.src_counts[:k]
                    for offset in body.imm_offsets:
                        if offset < k:
                            imm_index.append(base + offset)
                    for sources, dest, mem, store, p_taken in body.slots[:k]:
                        for reg in sources:
                            value = values[reg]
                            if value.__class__ is float:
                                sv_tag(f64)
                                sv_f64(value)
                            else:
                                sv_tag(i64)
                                sv_i64(value)
                        if mem is not None:
                            mem_index.append(seq)
                            if mem[0] == "stream":
                                mem_values.append(
                                    (mem[1] + stream_iter * mem[2]) % working_set)
                            else:
                                mem_values.append(randrange(0, working_set, 8))
                            if store:
                                value = values[sources[0]]
                                store_index.append(seq)
                                if value.__class__ is float:
                                    store_tags.append(f64)
                                    store_f64s.append(value)
                                else:
                                    store_tags.append(i64)
                                    store_i64s.append(value)
                        elif p_taken is not None and draw() < p_taken:
                            flags[seq] |= taken_bit
                        seq += 1
                        if dest >= 0:
                            values[dest] = seq  # unique token
                            result_index.append(seq - 1)
                            result_values.append(seq)
                    remaining -= k
                    if remaining == 0:
                        break
                    stream_iter += 1
                if remaining == 0:
                    break
                # wrap jump after the last body falls through
                if body_index == last_body:
                    ops.append(wrap_op)
                    flags.append(wrap_flag | taken_bit)
                    seqs.append(seq)
                    pcs.append(self.wrap_pc)
                    next_pcs.append(0)
                    targets.append(0)
                    dests.append(no_reg)
                    src_counts.append(0)
                    sv_counts.append(0)
                    seq += 1
                    remaining -= 1
        imm_tags += bytes((i64,)) * len(imm_index)
        imm_values += [-1] * len(imm_index)
        mem_tags += bytes((i64,)) * len(mem_index)
        result_tags += bytes((i64,)) * len(result_index)
        return out.pack()

    def _address(self, slot: _Slot, stream_iter: int, rng: random.Random) -> int:
        if slot.mem[0] == "stream":
            _kind, base, stride = slot.mem
            return (base + stream_iter * stride) % self.profile.working_set
        return rng.randrange(0, self.profile.working_set, 8)

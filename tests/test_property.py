"""Property-based tests (hypothesis) on core invariants.

The heaviest property here is the end-to-end fuzz: random (terminating)
programs must commit identical architectural state under the conventional
and sharing renamers, with operand verification enabled — i.e. physical
register sharing is *semantically invisible*, the paper's core safety
claim.
"""

from hypothesis import given, settings, strategies as st

from repro import MachineConfig
from repro.core.free_list import BankedFreeList
from repro.core.map_table import MapTable
from repro.core.prt import PhysicalRegisterTable
from repro.core.register_file import RegisterFileConfig
from repro.frontend.fetch import IterSource
from repro.isa import FirstTouchFaults
from repro.isa.dyninst import DynInst
from repro.isa.executor import FunctionalExecutor, run_to_completion
from repro.isa.instruction import Instruction
from repro.isa.memory import SparseMemory
from repro.isa.opcodes import Op
from repro.isa.program import DATA_BASE, Program
from repro.isa.registers import freg, xreg
from repro.pipeline.processor import Processor


# ----------------------------------------------------------------- free list
@st.composite
def freelist_ops(draw):
    sizes = draw(st.tuples(*[st.integers(1, 6)] * 4))
    ops = draw(st.lists(st.integers(0, 3), max_size=40))
    return sizes, ops


@given(freelist_ops())
@settings(max_examples=50, deadline=None)
def test_free_list_never_double_allocates(case):
    sizes, banks = case
    config = RegisterFileConfig(bank_sizes=sizes)
    free_list = BankedFreeList(config)
    allocated: set[int] = set()
    for bank in banks:
        result = free_list.allocate(bank)
        if result is None:
            assert free_list.free_count() == 0
            break
        phys, actual_bank = result
        assert phys not in allocated
        assert config.bank_of(phys) == actual_bank
        allocated.add(phys)
    assert free_list.free_count() == config.total_regs - len(allocated)
    for phys in allocated:
        free_list.release(phys)
    assert free_list.free_count() == config.total_regs


@given(st.sets(st.integers(0, 15), max_size=16))
@settings(max_examples=50, deadline=None)
def test_free_list_rebuild_partitions_registers(live):
    config = RegisterFileConfig(bank_sizes=(4, 4, 4, 4))
    free_list = BankedFreeList(config)
    free_list.rebuild(live)
    assert free_list.free_count() == 16 - len(live)
    for phys in range(16):
        assert free_list.contains(phys) == (phys not in live)


# ----------------------------------------------------------------- PRT
@given(st.lists(st.sampled_from(["read", "reuse", "reset"]), max_size=60),
       st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_prt_version_bounded(ops, bits):
    prt = PhysicalRegisterTable(1, counter_bits=bits)
    for op in ops:
        if op == "read":
            prt[0].read_bit = True
        elif op == "reuse":
            if not prt.saturated(0):
                version = prt.reuse(0)
                assert not prt[0].read_bit
                assert version == prt[0].version
        else:
            prt.reset_entry(0, -1)
            assert prt[0].version == 0 and not prt[0].read_bit
        assert 0 <= prt[0].version <= prt.max_version


# ----------------------------------------------------------------- memory
@given(st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(-1000, 1000)),
                max_size=50))
@settings(max_examples=50, deadline=None)
def test_sparse_memory_matches_dict_model(writes):
    mem = SparseMemory()
    model: dict[int, int] = {}
    for addr, value in writes:
        mem.store(addr, value)
        model[addr & ~7] = value
    for addr in model:
        assert mem.load(addr) == model[addr]
        assert mem.load(addr + 7) == model[addr]


# ----------------------------------------------------------------- map table
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 30),
                          st.integers(0, 3)), max_size=40))
@settings(max_examples=50, deadline=None)
def test_map_table_copy_and_diff(updates):
    table = MapTable(8)
    other = MapTable(8)
    for logical in range(8):
        table.set(logical, (logical, 0))
        other.set(logical, (logical, 0))
    for logical, phys, version in updates:
        table.set(logical, (phys, version))
    diff = table.diff_count(other)
    assert 0 <= diff <= 8
    other.copy_from(table)
    assert table.diff_count(other) == 0
    assert other.physical_regs() == table.physical_regs()


# ------------------------------------------------- sharing renamer sequences
def _make_sharing_renamer():
    """A tight configuration (one spare beyond the 32 logicals per class,
    small shadow banks) so random sequences hit allocation pressure,
    reuse, repair and release constantly."""
    from repro.core.sharing import SharingRenamer

    config = RegisterFileConfig(bank_sizes=(33, 2, 2, 2))
    return SharingRenamer(config, RegisterFileConfig(bank_sizes=(33, 2, 2, 2)),
                          counter_bits=2)


def _rename_dyn(seq, cls_is_fp, dest_idx, src_idx):
    from repro.isa.registers import freg, xreg

    make = freg if cls_is_fp else xreg
    return DynInst(
        seq=seq, pc=(seq * 7) % 97,
        op=Op.FADD if cls_is_fp else Op.ADD,
        dest=make(dest_idx), srcs=(make(src_idx), make(dest_idx)),
        src_values=(0.0, 0.0) if cls_is_fp else (0, 0),
    )


def _assert_sharing_conservation(renamer, in_flight):
    """Free-list conservation: the free set is exactly the complement of the
    live set (spec map ∪ committed-referenced ∪ in-flight destinations),
    and every live tag's version is within the counter bound."""
    from repro.isa.registers import RegClass

    for cls, domain in renamer.domains.items():
        total = domain.config.total_regs
        free = {p for p in range(total) if domain.free.contains(p)}
        live = {tag[0] for tag in domain.map.entries}
        live |= {p for p in range(total) if domain.refcount[p] > 0}
        for group in in_flight:
            for dyn in group:
                tag = dyn.dest_tag
                if tag is not None and tag[0] == cls.value and tag[1] >= 0:
                    live.add(tag[1])
                    assert 0 <= tag[2] <= domain.prt.max_version, (cls, tag)
        assert free == set(range(total)) - live, cls


@st.composite
def renamer_ops(draw):
    return draw(st.lists(st.one_of(
        st.tuples(st.just("rename"), st.booleans(),
                  st.integers(0, 31), st.integers(0, 31)),
        st.tuples(st.just("commit")),
        st.tuples(st.just("squash"), st.integers(1, 5)),
        st.tuples(st.just("recover")),
    ), min_size=1, max_size=80))


@given(renamer_ops())
@settings(max_examples=40, deadline=None)
def test_sharing_renamer_free_list_conservation(ops):
    """Drive a bare SharingRenamer (no pipeline) through random
    rename/commit/squash/recover sequences with the real pipeline's
    ordering rules — commit oldest first, squash a suffix youngest-first —
    and assert free-list conservation and version-counter bounds after
    every step."""
    from repro.pipeline.debug import check_sharing_renamer

    renamer = _make_sharing_renamer()
    in_flight = []  # rename groups (repair µops + instruction), oldest first
    seq = 0
    for op in ops:
        kind = op[0]
        if kind == "rename":
            dyn = _rename_dyn(seq, *op[1:])
            seq += 1
            if not renamer.can_rename(dyn):
                continue
            in_flight.append(renamer.rename(dyn, is_ready=lambda tag: True))
        elif kind == "commit":
            if in_flight:
                for dyn in in_flight.pop(0):
                    renamer.commit(dyn)
        elif kind == "squash":
            depth = min(op[1], len(in_flight))
            if depth:
                squashed = [dyn for group in reversed(in_flight[-depth:])
                            for dyn in reversed(group)]
                renamer.squash_to(squashed)
                del in_flight[-depth:]
        else:  # recover: precise-state restart discards everything in flight
            renamer.recover()
            in_flight.clear()
        check_sharing_renamer(renamer)
        _assert_sharing_conservation(renamer, in_flight)

    # drain: commit everything left and expect a fully consistent end state
    while in_flight:
        for dyn in in_flight.pop(0):
            renamer.commit(dyn)
    check_sharing_renamer(renamer)
    _assert_sharing_conservation(renamer, in_flight)


# ----------------------------------------------------------------- programs
_INT_SRC = st.integers(1, 6)
_FP_SRC = st.integers(1, 6)


@st.composite
def random_program(draw):
    """A random terminating program: straight-line int/fp/memory ops with
    forward-only branches, over a small data array."""
    body = []
    length = draw(st.integers(5, 40))
    for index in range(length):
        kind = draw(st.sampled_from(
            ["alu", "alui", "fp", "load", "store", "fload", "fstore",
             "branch", "cvt"]))
        if kind == "alu":
            op = draw(st.sampled_from([Op.ADD, Op.SUB, Op.MUL, Op.AND,
                                       Op.XOR, Op.SLT]))
            body.append(Instruction(op, dest=xreg(draw(_INT_SRC)),
                                    srcs=(xreg(draw(_INT_SRC)),
                                          xreg(draw(_INT_SRC)))))
        elif kind == "alui":
            body.append(Instruction(Op.ADDI, dest=xreg(draw(_INT_SRC)),
                                    srcs=(xreg(draw(_INT_SRC)),),
                                    imm=draw(st.integers(-64, 64))))
        elif kind == "fp":
            op = draw(st.sampled_from([Op.FADD, Op.FSUB, Op.FMUL]))
            body.append(Instruction(op, dest=freg(draw(_FP_SRC)),
                                    srcs=(freg(draw(_FP_SRC)),
                                          freg(draw(_FP_SRC)))))
        elif kind == "cvt":
            body.append(Instruction(Op.FCVT, dest=freg(draw(_FP_SRC)),
                                    srcs=(xreg(draw(_INT_SRC)),)))
        elif kind == "load":
            body.append(Instruction(Op.LD, dest=xreg(draw(_INT_SRC)),
                                    srcs=(xreg(7),),
                                    imm=8 * draw(st.integers(0, 7))))
        elif kind == "fload":
            body.append(Instruction(Op.FLD, dest=freg(draw(_FP_SRC)),
                                    srcs=(xreg(7),),
                                    imm=8 * draw(st.integers(0, 7))))
        elif kind == "store":
            body.append(Instruction(Op.ST, srcs=(xreg(draw(_INT_SRC)), xreg(7)),
                                    imm=8 * draw(st.integers(0, 7))))
        elif kind == "fstore":
            body.append(Instruction(Op.FST, srcs=(freg(draw(_FP_SRC)), xreg(7)),
                                    imm=8 * draw(st.integers(0, 7))))
        else:  # forward branch (resolved after layout)
            body.append(("branch", draw(st.sampled_from([Op.BEQZ, Op.BNEZ])),
                         draw(_INT_SRC), draw(st.integers(1, 4))))

    # preamble: base pointer + deterministic initial values
    insts = [
        Instruction(Op.MOVI, dest=xreg(7), imm=DATA_BASE),
        Instruction(Op.MOVI, dest=xreg(1), imm=3),
        Instruction(Op.MOVI, dest=xreg(2), imm=-5),
        Instruction(Op.FLI, dest=freg(1), imm=1.5),
        Instruction(Op.FLI, dest=freg(2), imm=-0.25),
    ]
    offset = len(insts)
    for index, item in enumerate(body):
        if isinstance(item, tuple):
            _tag, op, src, skip = item
            target = min(offset + index + 1 + skip, offset + len(body))
            insts.append(Instruction(op, srcs=(xreg(src),), target=target))
        else:
            insts.append(item)
    insts.append(Instruction(Op.HALT))
    data = {DATA_BASE + 8 * i: i * 7 - 3 for i in range(8)}
    return Program(insts=insts, data=data)


def _run_pipeline(program, scheme, fault_model=None, **kw):
    config = MachineConfig(scheme=scheme, int_regs=40, fp_regs=40, **kw)
    executor = FunctionalExecutor(
        program, fault_model=fault_model or FirstTouchFaults(limit=0))
    processor = Processor(config, IterSource(executor.run(50_000)),
                          fault_model=fault_model)
    processor.run()
    return processor.architectural_state()


@given(random_program())
@settings(max_examples=25, deadline=None)
def test_sharing_semantically_invisible(program):
    reference = run_to_completion(program, 50_000)
    for scheme in ("conventional", "sharing"):
        int_regs, fp_regs = _run_pipeline(program, scheme)
        assert int_regs == reference.int_regs, scheme
        assert fp_regs == reference.fp_regs, scheme


@given(random_program())
@settings(max_examples=15, deadline=None)
def test_sharing_precise_under_faults(program):
    reference = run_to_completion(program, 50_000)
    fault_model = FirstTouchFaults()
    int_regs, fp_regs = _run_pipeline(program, "sharing",
                                      fault_model=fault_model)
    assert int_regs == reference.int_regs
    assert fp_regs == reference.fp_regs


@given(random_program(), st.sampled_from([(33, 1, 1, 1), (34, 4, 2, 2),
                                          (0, 0, 0, 40)]))
@settings(max_examples=15, deadline=None)
def test_sharing_correct_under_extreme_pressure(program, banks):
    reference = run_to_completion(program, 50_000)
    int_regs, fp_regs = _run_pipeline(program, "sharing",
                                      int_banks=banks, fp_banks=banks)
    assert int_regs == reference.int_regs
    assert fp_regs == reference.fp_regs


@given(random_program())
@settings(max_examples=15, deadline=None)
def test_sharing_correct_with_wrong_path_speculation(program):
    """Wrong-path renames + walk-back never leak into architectural state."""
    reference = run_to_completion(program, 50_000)
    int_regs, fp_regs = _run_pipeline(program, "sharing",
                                      model_wrong_path=True)
    assert int_regs == reference.int_regs
    assert fp_regs == reference.fp_regs


@given(random_program())
@settings(max_examples=10, deadline=None)
def test_wrong_path_with_faults_combined(program):
    reference = run_to_completion(program, 50_000)
    fault_model = FirstTouchFaults()
    int_regs, fp_regs = _run_pipeline(program, "sharing",
                                      fault_model=fault_model,
                                      model_wrong_path=True)
    assert int_regs == reference.int_regs
    assert fp_regs == reference.fp_regs

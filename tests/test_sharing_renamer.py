"""Unit tests for the sharing renamer — including the paper's Figure 4
walk-through."""

import pytest

from repro.core.register_file import RegisterFileConfig
from repro.core.sharing import SharingRenamer
from repro.isa.opcodes import Op
from repro.isa.registers import RegClass, xreg

from tests.util import make_inst, always_ready, never_ready

ALL_SHADOW = RegisterFileConfig(bank_sizes=(0, 0, 0, 64))  # every reg has 3 shadows
NO_SHADOW = RegisterFileConfig(bank_sizes=(64,))
SMALL_FP = RegisterFileConfig(bank_sizes=(33, 0, 0, 8))


def make_renamer(int_cfg=ALL_SHADOW, fp_cfg=SMALL_FP, **kw):
    return SharingRenamer(int_cfg, fp_cfg, **kw)


def train_single_use(renamer, *pcs, bank=3):
    """Pre-train the type predictor: allocations at these PCs are predicted
    single-use (shadow-bank) registers."""
    for pc in pcs:
        renamer.predictor.table[renamer.predictor.index_of(pc)] = bank


def rename_all(renamer, insts, is_ready=never_ready):
    out = []
    for dyn in insts:
        assert renamer.can_rename(dyn)
        out.extend(renamer.rename(dyn, is_ready))
    return out


# ------------------------------------------------------------- Figure 4 example
def test_figure4_full_example():
    """The complete Figure 4(b) walk-through: 8 instructions, 4 allocations.

    The paper's outcome depends on the register-type predictor's bank
    choices, so we pre-train the predictor the way the figure assumes:
    I1's register gets 3 shadow cells (it anchors the r1 chain), I2's ld
    result is a plain register (r3 has two consumers), I3's register gets
    one shadow cell (r2 is single-use, reused by I7).
    """
    renamer = SharingRenamer(
        RegisterFileConfig(bank_sizes=(48, 16, 16, 48)), SMALL_FP
    )
    pred = renamer.predictor
    pred.table[pred.index_of(1)] = 3  # I1 -> 3-shadow bank
    pred.table[pred.index_of(2)] = 0  # I2 -> conventional bank
    pred.table[pred.index_of(3)] = 1  # I3 -> 1-shadow bank

    i1 = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)   # I1: add r1 <- r2, r3
    i2 = make_inst(Op.LD, "x3", ("x9",), pc=2)         # I2: ld  r3 <- m(x1)
    i3 = make_inst(Op.MUL, "x2", ("x3", "x4"), pc=3)   # I3: mul r2 <- r3, r4
    i4 = make_inst(Op.ADD, "x1", ("x1", "x4"), pc=4)   # I4: add r1 <- r1, r4
    i5 = make_inst(Op.MUL, "x1", ("x1", "x1"), pc=5)   # I5: mul r1 <- r1, r1
    i6 = make_inst(Op.MUL, "x1", ("x1", "x3"), pc=6)   # I6: mul r1 <- r1, r3
    i7 = make_inst(Op.ADD, "x5", ("x1", "x2"), pc=7)   # I7: add r5 <- r1, r2
    i8 = make_inst(Op.SUB, "x2", ("x5", "x1"), pc=8)   # I8: sub r2 <- r5, r1
    rename_all(renamer, [i1, i2, i3, i4, i5, i6, i7, i8])

    p1 = i1.dest_tag
    assert p1[2] == 0 and i1.allocated_new

    # I2 allocates a plain register; I3 cannot reuse it (no shadow cell),
    # exactly as the figure shows I3 allocating P6
    assert i2.allocated_new and i3.allocated_new

    # the r1 chain: I4 -> P1.1, I5 -> P1.2, I6 -> P1.3 (guaranteed reuses)
    assert i4.dest_tag == (p1[0], p1[1], 1) and i4.reused_src == 0
    assert i5.src_tags == [i4.dest_tag, i4.dest_tag]
    assert i5.dest_tag == (p1[0], p1[1], 2)
    assert i6.dest_tag == (p1[0], p1[1], 3)

    # I7: r1's counter is saturated, but r2 (P6) is first-use with a free
    # shadow cell -> predicted reuse: r5 becomes P6.1 (paper: "P6.1")
    p6 = i3.dest_tag
    assert i7.dest_tag == (p6[0], p6[1], 1)
    assert i7.reused_src == 1

    # I8: r5 (P6.1) is first-use but P6 has no shadow cell left -> new register
    assert i8.allocated_new

    stats = renamer.stats
    assert stats.reuses == 4  # I4, I5, I6 guaranteed + I7 predicted
    assert stats.reuses_guaranteed == 3
    assert stats.reuses_predicted == 1
    assert stats.allocations == 4  # I1, I2, I3, I8 — "4 new registers"
    assert stats.repairs == 0
    assert stats.lost_reuse_saturated >= 1  # I7 via r1
    assert stats.lost_reuse_no_shadow >= 1  # I3 via r3, I8 via r5


def test_figure4_saturated_counter_blocks_fourth_reuse():
    renamer = make_renamer()
    insts = [make_inst(Op.ADD, "x1", ("x1", "x2"), pc=i) for i in range(6)]
    rename_all(renamer, insts)
    # first rename allocates (initial mapping has its Read bit set);
    # then three reuses until the 2-bit counter saturates, then a fresh
    # allocation, then reuse of the fresh register
    assert insts[0].allocated_new
    assert [i.dest_tag[2] for i in insts[1:4]] == [1, 2, 3]
    assert insts[4].allocated_new
    assert insts[4].dest_tag[2] == 0
    assert insts[5].dest_tag[2] == 1
    assert renamer.stats.lost_reuse_saturated == 1


def test_predicted_reuse_through_different_logical():
    """I7 of Figure 4: add r5 <- r1, r2 reuses r2's register (predicted)."""
    renamer = make_renamer()
    train_single_use(renamer, 3)
    i3 = make_inst(Op.MUL, "x2", ("x3", "x4"), pc=3)
    i7 = make_inst(Op.ADD, "x5", ("x9", "x2"), pc=7)
    rename_all(renamer, [i3, i7])
    p6 = i3.dest_tag
    # x9's initial mapping has the Read bit set, so the eligible source is x2
    assert i7.reused_src == 1
    assert i7.dest_tag == (p6[0], p6[1], 1)
    assert renamer.stats.reuses_predicted == 1


def test_no_reuse_without_shadow_cells():
    renamer = make_renamer(int_cfg=NO_SHADOW)
    i1 = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)
    i2 = make_inst(Op.ADD, "x1", ("x1", "x3"), pc=2)
    rename_all(renamer, [i1, i2])
    assert i2.allocated_new  # no shadow cell -> cannot reuse even when guaranteed
    assert renamer.stats.reuses == 0
    assert renamer.stats.lost_reuse_no_shadow == 1


def test_second_consumer_prevents_reuse():
    renamer = make_renamer()
    train_single_use(renamer, 1)
    i1 = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)
    i2 = make_inst(Op.ADD, "x4", ("x1", "x9"), pc=2)  # first consumer, reuses
    rename_all(renamer, [i1, i2])
    assert i2.reused_src == 0

    renamer2 = make_renamer()
    train_single_use(renamer2, 1)
    j1 = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)
    j2 = make_inst(Op.ST, None, ("x1", "x9"), pc=2, mem_addr=0)  # consumer (store)
    j3 = make_inst(Op.ADD, "x1", ("x1", "x9"), pc=3)  # second consumer + redefiner
    rename_all(renamer2, [j1, j2, j3])
    assert j3.allocated_new  # Read bit already set by the store
    assert renamer2.stats.lost_reuse_not_first_use == 1


def test_source_tags_carry_versions_for_wakeup():
    renamer = make_renamer()
    i1 = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)
    i4 = make_inst(Op.ADD, "x1", ("x1", "x4"), pc=4)
    i5 = make_inst(Op.MUL, "x1", ("x1", "x1"), pc=5)
    rename_all(renamer, [i1, i4, i5])
    # consumers wait on distinct versions (the paper's wakeup disambiguation)
    assert i4.src_tags[0][2] == 0
    assert i5.src_tags[0][2] == 1
    assert i4.dest_tag != i1.dest_tag


# ------------------------------------------------------------- repair micro-ops
def repair_scenario(renamer, is_ready=never_ready):
    train_single_use(renamer, 1)
    i1 = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)
    i2 = make_inst(Op.ADD, "x4", ("x1", "x9"), pc=2)  # predicted single use: reuse
    i3 = make_inst(Op.ADD, "x5", ("x1", "x9"), pc=3, src_values=(111, 0))  # extra use!
    out1 = rename_all(renamer, [i1, i2])
    assert i2.reused_src == 0
    assert renamer.uops_needed(i3, is_ready) in (1, 3)
    assert renamer.can_rename(i3)
    group = renamer.rename(i3, is_ready)
    return i1, i2, i3, group


def test_repair_injects_one_uop_when_not_executed():
    renamer = make_renamer()
    i1, i2, i3, group = repair_scenario(renamer, is_ready=never_ready)
    uops = [g for g in group if g.micro_op]
    assert len(uops) == 1
    assert group[-1] is i3
    uop = uops[0]
    # the uop moves the stale version to a fresh register
    assert uop.src_tags == [ (i1.dest_tag[0], i1.dest_tag[1], 0) ]
    assert uop.dest_tag[1] != i1.dest_tag[1]
    assert uop.dest_tag[2] == 0
    # the consumer reads the evacuated copy
    assert i3.src_tags[0] == uop.dest_tag
    assert renamer.stats.repairs == 1
    assert renamer.stats.repair_uops == 1


def test_repair_injects_three_uops_when_checkpointed():
    renamer = make_renamer()
    i1, i2, i3, group = repair_scenario(renamer, is_ready=always_ready)
    uops = [g for g in group if g.micro_op]
    assert len(uops) == 3
    # dependence chain: uop k feeds uop k+1, last one produces the real tag
    assert uops[1].src_tags == [uops[0].dest_tag]
    assert uops[2].src_tags == [uops[1].dest_tag]
    assert uops[0].dest_tag[1] < 0 and uops[1].dest_tag[1] < 0
    assert uops[2].dest_tag[1] >= 0
    assert i3.src_tags[0] == uops[2].dest_tag
    assert renamer.stats.repair_uops == 3


def test_repair_updates_map_so_no_second_repair():
    renamer = make_renamer()
    _, _, i3, _ = repair_scenario(renamer)
    i4 = make_inst(Op.ADD, "x6", ("x1", "x9"), pc=4)
    assert renamer.uops_needed(i4, never_ready) == 0
    group = renamer.rename(i4, never_ready)
    assert len(group) == 1
    assert i4.src_tags[0] == i3.src_tags[0]


def test_repair_uop_carries_value_for_verification():
    renamer = make_renamer()
    _, _, _, group = repair_scenario(renamer)
    uop = group[0]
    assert uop.src_values == (111,)
    assert uop.result == 111


# ------------------------------------------------------------- commit & release
def test_commit_release_after_redefinition():
    renamer = make_renamer()
    domain = renamer.domains[RegClass.INT]
    free0 = domain.free.free_count()
    i1 = make_inst(Op.MOVI, "x1", (), pc=1)
    i2 = make_inst(Op.MOVI, "x1", (), pc=2)
    rename_all(renamer, [i1, i2])
    assert domain.free.free_count() == free0 - 2
    renamer.commit(i1)  # releases x1's *initial* register
    assert domain.free.free_count() == free0 - 1
    assert renamer.stats.releases == 1
    renamer.commit(i2)  # releases i1's register
    assert domain.free.free_count() == free0
    assert renamer.stats.releases == 2


def test_commit_refcount_protects_shared_register():
    """A register shared by two logical registers is released only when
    both retirement references are gone."""
    renamer = make_renamer()
    train_single_use(renamer, 1)
    domain = renamer.domains[RegClass.INT]
    i1 = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)
    i2 = make_inst(Op.ADD, "x4", ("x1", "x9"), pc=2)  # reuses x1's register
    i3 = make_inst(Op.MOVI, "x1", (), pc=3)  # redefines x1
    i4 = make_inst(Op.MOVI, "x4", (), pc=4)  # redefines x4
    rename_all(renamer, [i1, i2, i3, i4])
    shared = i1.dest_tag[1]
    assert i2.dest_tag[1] == shared

    renamer.commit(i1)
    renamer.commit(i2)
    assert domain.refcount[shared] == 2
    renamer.commit(i3)  # x1 leaves the shared register
    assert domain.refcount[shared] == 1
    assert not domain.free.contains(shared)
    renamer.commit(i4)  # x4 leaves: now released
    assert domain.free.contains(shared)


def test_reuse_same_register_no_release():
    renamer = make_renamer()
    i1 = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)
    i2 = make_inst(Op.ADD, "x1", ("x1", "x3"), pc=2)  # reuse: same phys
    rename_all(renamer, [i1, i2])
    renamer.commit(i1)
    releases = renamer.stats.releases
    renamer.commit(i2)
    # committing the reuse does not release the shared register
    assert renamer.stats.releases == releases
    assert renamer.committed_tag(xreg(1)) == i2.dest_tag


# ------------------------------------------------------------- recovery
def test_recover_restores_retirement_state():
    renamer = make_renamer()
    i1 = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)
    i2 = make_inst(Op.ADD, "x1", ("x1", "x4"), pc=2)
    i3 = make_inst(Op.ADD, "x5", ("x1", "x4"), pc=3)
    rename_all(renamer, [i1, i2, i3])
    renamer.commit(i1)  # only I1 commits; I2/I3 are squashed
    diff = renamer.recover()
    assert diff >= 2  # x1 and x5 mappings differed
    domain = renamer.domains[RegClass.INT]
    assert domain.map.get(1) == domain.retire_map.get(1)
    # the PRT rolled the shared register back to the committed version
    phys = i1.dest_tag[1]
    assert domain.prt[phys].version == 0
    assert domain.prt[phys].read_bit  # conservative


def test_recover_rebuilds_free_lists():
    renamer = make_renamer()
    domain = renamer.domains[RegClass.INT]
    free0 = domain.free.free_count()
    insts = [make_inst(Op.MOVI, f"x{i}", (), pc=i) for i in range(1, 9)]
    rename_all(renamer, insts)
    assert domain.free.free_count() == free0 - 8
    renamer.recover()
    assert domain.free.free_count() == free0


def test_recover_after_speculative_reuse_keeps_committed_value_slot():
    renamer = make_renamer()
    i1 = make_inst(Op.ADD, "x1", ("x2", "x3"), pc=1)
    rename_all(renamer, [i1])
    renamer.commit(i1)
    renamer.write(i1.dest_tag, 42)
    i2 = make_inst(Op.ADD, "x1", ("x1", "x4"), pc=2)
    rename_all(renamer, [i2])
    renamer.write(i2.dest_tag, 43)  # speculative overwrite into shadow
    renamer.recover()
    assert renamer.read(renamer.committed_tag(xreg(1))) == 42


# ------------------------------------------------------------- stalls
def test_can_rename_false_when_exhausted_and_no_reuse():
    cfg = RegisterFileConfig(bank_sizes=(33,))  # just enough for logical state
    renamer = SharingRenamer(cfg, SMALL_FP)
    i1 = make_inst(Op.MOVI, "x1", (), pc=1)
    assert renamer.can_rename(i1)
    renamer.rename(i1, never_ready)
    i2 = make_inst(Op.MOVI, "x2", (), pc=2)
    assert not renamer.can_rename(i2)  # no free regs, no sources to reuse


def test_can_rename_true_when_reuse_possible_despite_exhaustion():
    cfg = RegisterFileConfig(bank_sizes=(30, 1, 1, 1))
    renamer = SharingRenamer(cfg, SMALL_FP)
    i1 = make_inst(Op.MOVI, "x1", (), pc=1)
    renamer.rename(i1, never_ready)
    # drain the free list
    while renamer.domains[RegClass.INT].free.free_count():
        renamer.domains[RegClass.INT].free.allocate(0)
    # x1's new register may be reusable if it landed in a shadow bank
    i2 = make_inst(Op.ADD, "x1", ("x1", "x9"), pc=2)
    expected = i1.alloc_bank > 0
    assert renamer.can_rename(i2) == expected


def test_instruction_without_dest_never_stalls_on_registers():
    cfg = RegisterFileConfig(bank_sizes=(33,))
    renamer = SharingRenamer(cfg, SMALL_FP)
    renamer.rename(make_inst(Op.MOVI, "x1", (), pc=1), never_ready)
    store = make_inst(Op.ST, None, ("x1", "x2"), pc=2, mem_addr=0)
    assert renamer.can_rename(store)

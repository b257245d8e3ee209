"""Unit tests for branch direction/target prediction."""

from repro.frontend.branch_predictor import (
    BTB_ENTRIES,
    RAS_DEPTH,
    BimodalPredictor,
    BranchTargetBuffer,
    BranchUnit,
    GSharePredictor,
    ReturnAddressStack,
)
from repro.isa.dyninst import DynInst
from repro.isa.opcodes import Op


def test_bimodal_learns_bias():
    predictor = BimodalPredictor()
    for _ in range(4):
        predictor.update(5, True)
    assert predictor.predict(5)
    for _ in range(4):
        predictor.update(5, False)
    assert not predictor.predict(5)


def test_bimodal_hysteresis():
    predictor = BimodalPredictor()
    for _ in range(4):
        predictor.update(5, True)
    predictor.update(5, False)  # one not-taken shouldn't flip a saturated entry
    assert predictor.predict(5)


def test_gshare_separates_histories():
    predictor = GSharePredictor()
    # alternating pattern: global history disambiguates
    for _ in range(64):
        predictor.update(9, predictor.history & 1 == 0)
    correct = 0
    for _ in range(32):
        actual = predictor.history & 1 == 0
        correct += predictor.predict(9) == actual
        predictor.update(9, actual)
    assert correct >= 28  # learns the alternation almost perfectly


def test_btb_tag_match():
    btb = BranchTargetBuffer()
    assert btb.lookup(3) is None
    btb.update(3, 77)
    assert btb.lookup(3) == 77
    # aliasing index with different tag misses
    assert btb.lookup(3 + BTB_ENTRIES) is None


def test_ras_push_pop_depth():
    ras = ReturnAddressStack()
    for addr in range(RAS_DEPTH + 1):  # overflows: oldest dropped
        ras.push(addr)
    for addr in range(RAS_DEPTH, 0, -1):
        assert ras.pop() == addr
    assert ras.pop() is None


def branch(pc, taken, target, op=Op.BNEZ, next_pc=None):
    dyn = DynInst(seq=0, pc=pc, op=op, taken=taken, target=target)
    dyn.next_pc = next_pc if next_pc is not None else (target if taken else pc + 1)
    return dyn


def test_branch_unit_learns_loop_branch():
    unit = BranchUnit(kind="bimodal")
    results = [unit.observe(branch(10, True, 2)) for _ in range(20)]
    assert not results[0]  # cold: predicted not-taken and/or BTB miss
    assert all(results[8:])  # warm: predicted correctly
    assert unit.stats.branches == 20


def test_branch_unit_unconditional_jump_needs_btb():
    unit = BranchUnit()
    j = branch(4, True, 40, op=Op.JMP)
    assert not unit.observe(j)  # BTB cold
    assert unit.observe(branch(4, True, 40, op=Op.JMP))


def test_branch_unit_call_return_pair():
    unit = BranchUnit()
    call = branch(7, True, 100, op=Op.JAL)
    unit.observe(call)
    ret = DynInst(seq=1, pc=105, op=Op.JALR, taken=True, target=8)
    ret.next_pc = 8  # return address = call pc + 1
    assert unit.observe(ret)


def test_branch_unit_return_mispredicts_on_empty_ras():
    unit = BranchUnit()
    ret = DynInst(seq=0, pc=50, op=Op.JALR, taken=True, target=9)
    ret.next_pc = 9
    assert not unit.observe(ret)
    assert unit.stats.mispredicted == 1


def test_accuracy_property():
    unit = BranchUnit()
    for _ in range(10):
        unit.observe(branch(3, True, 1))
    assert 0.0 <= unit.stats.accuracy <= 1.0

"""Unit tests for the core renaming data structures."""

import pytest

from repro.core.free_list import BankedFreeList
from repro.core.map_table import MapTable
from repro.core.prt import PhysicalRegisterTable
from repro.core.register_file import BankedRegisterFile, RegisterFileConfig
from repro.core.type_predictor import RegisterTypePredictor


# ----------------------------------------------------------------- RF config
def test_rf_config_bank_layout():
    cfg = RegisterFileConfig(bank_sizes=(28, 4, 4, 4))
    assert cfg.total_regs == 40
    assert cfg.bank_of(0) == 0
    assert cfg.bank_of(27) == 0
    assert cfg.bank_of(28) == 1
    assert cfg.bank_of(39) == 3
    assert cfg.shadow_cells_of(27) == 0
    assert cfg.shadow_cells_of(39) == 3
    assert list(cfg.bank_range(1)) == [28, 29, 30, 31]
    assert cfg.total_shadow_cells == 4 * 1 + 4 * 2 + 4 * 3


def test_rf_config_flat():
    cfg = RegisterFileConfig.flat(64)
    assert cfg.num_banks == 1
    assert cfg.shadow_cells_of(63) == 0
    with pytest.raises(ValueError):
        cfg.bank_of(64)
    with pytest.raises(ValueError):
        cfg.bank_of(-1)


# ----------------------------------------------------------------- value store
def test_register_file_versions():
    rf = BankedRegisterFile(RegisterFileConfig(bank_sizes=(2, 0, 0, 2)))
    rf.write(2, 0, 1.0)
    rf.write(2, 1, 2.0)
    rf.write(2, 3, 4.0)
    assert rf.read(2, 0) == 1.0 and rf.read(2, 3) == 4.0


def test_register_file_capacity_enforced():
    rf = BankedRegisterFile(RegisterFileConfig(bank_sizes=(2, 2)))
    rf.write(0, 0, 5)
    with pytest.raises(AssertionError):
        rf.write(0, 1, 6)  # bank 0 has no shadow cells
    rf.write(2, 1, 6)  # bank 1 has one shadow cell


def test_register_file_temp_registers_unconstrained():
    rf = BankedRegisterFile(RegisterFileConfig(bank_sizes=(2,)))
    rf.write(-1, 0, 42)
    assert rf.read(-1, 0) == 42


def test_register_file_drop_operations():
    rf = BankedRegisterFile(RegisterFileConfig(bank_sizes=(0, 0, 0, 2)))
    for version in range(4):
        rf.write(0, version, version)
    rf.drop_above(0, 1)
    assert rf.has(0, 1) and not rf.has(0, 2)
    rf.drop_register(0)
    assert not rf.has(0, 0)
    with pytest.raises(AssertionError):
        rf.read(0, 0)


def test_register_file_live_version_counts():
    rf = BankedRegisterFile(RegisterFileConfig(bank_sizes=(1, 1, 1, 1)))
    rf.write(3, 0, 1)
    rf.write(3, 1, 2)
    rf.write(0, 0, 3)
    assert rf.live_version_counts() == {3: 2, 0: 1}


# ----------------------------------------------------------------- free list
def test_free_list_allocation_order_and_fallback():
    cfg = RegisterFileConfig(bank_sizes=(2, 1, 1, 1))
    fl = BankedFreeList(cfg)
    assert fl.free_count() == 5
    phys, bank = fl.allocate(0)
    assert bank == 0 and phys in cfg.bank_range(0)
    fl.allocate(0)
    # bank 0 empty: closest fallback is bank 1
    phys, bank = fl.allocate(0)
    assert bank == 1
    # prefer larger bank on distance ties: from bank 1 -> try 1, then 2, then 0
    order = fl.fallback_order(1)
    assert order[0] == 1 and order[1] == 2 and order[2] == 0


def test_free_list_release_and_double_free():
    cfg = RegisterFileConfig(bank_sizes=(2, 2))
    fl = BankedFreeList(cfg)
    phys, _ = fl.allocate(1)
    fl.release(phys)
    assert fl.contains(phys)
    with pytest.raises(AssertionError):
        fl.release(phys)


def test_free_list_rebuild():
    cfg = RegisterFileConfig(bank_sizes=(2, 2))
    fl = BankedFreeList(cfg)
    fl.allocate(0)
    fl.allocate(1)
    fl.rebuild(live={0, 2})
    assert fl.free_count() == 2
    assert not fl.contains(0) and fl.contains(1) and fl.contains(3)


def test_free_list_exhaustion():
    cfg = RegisterFileConfig(bank_sizes=(1,))
    fl = BankedFreeList(cfg)
    assert fl.allocate(0) is not None
    assert fl.allocate(0) is None
    assert fl.free_count() == 0


# ----------------------------------------------------------------- PRT
def test_prt_read_bit_and_reuse():
    prt = PhysicalRegisterTable(4, counter_bits=2)
    assert not prt[1].read_bit  # first consumer sees clear bit
    prt[1].read_bit = True  # ...and sets it
    version = prt.reuse(1)
    assert version == 1
    assert not prt[1].read_bit  # new version unconsumed


def test_prt_counter_saturation():
    prt = PhysicalRegisterTable(2, counter_bits=2)
    for _ in range(3):
        prt.reuse(0)
    assert prt.saturated(0)
    with pytest.raises(AssertionError):
        prt.reuse(0)


def test_prt_counter_bits_configurable():
    prt = PhysicalRegisterTable(1, counter_bits=1)
    prt.reuse(0)
    assert prt.saturated(0)
    prt3 = PhysicalRegisterTable(1, counter_bits=3)
    for _ in range(7):
        prt3.reuse(0)
    assert prt3.saturated(0)


def test_prt_reset_and_restore():
    prt = PhysicalRegisterTable(2)
    prt.reuse(0)
    prt.reset_entry(0, alloc_index=7)
    assert prt[0].version == 0 and not prt[0].read_bit
    assert prt[0].alloc_index == 7
    prt.reuse(0)
    prt.reuse(0)
    prt.restore(0, 1)
    assert prt[0].version == 1
    assert prt[0].read_bit  # conservative after recovery


# ----------------------------------------------------------------- map table
def test_map_table_basics():
    mt = MapTable(4)
    with pytest.raises(AssertionError):
        mt.get(0)
    mt.set(0, (5, 0))
    assert mt.get(0) == (5, 0)
    other = MapTable(4)
    other.copy_from(mt)
    assert other.entries == mt.entries


def test_map_table_diff_count():
    a = MapTable(4)
    b = MapTable(4)
    for i in range(4):
        a.set(i, (i, 0))
        b.set(i, (i, 0))
    assert a.diff_count(b) == 0
    b.set(2, (9, 1))
    assert a.diff_count(b) == 1


def test_map_table_physical_regs():
    mt = MapTable(3)
    mt.set(0, (4, 0))
    mt.set(1, (4, 1))
    mt.set(2, (7, 0))
    assert mt.physical_regs() == {4, 7}


# ----------------------------------------------------------------- predictor
def test_type_predictor_prediction_range():
    pred = RegisterTypePredictor(entries=512, num_banks=4)
    bank, index = pred.predict(0x1234)
    assert 0 <= bank <= 3
    assert 0 <= index < 512


def test_type_predictor_starvation_increments():
    pred = RegisterTypePredictor(entries=64)
    _, index = pred.predict(10)
    assert pred.table[index] == 0
    pred.on_shadow_starvation(index)
    assert pred.table[index] == 1
    for _ in range(5):
        pred.on_shadow_starvation(index)
    assert pred.table[index] == 3  # saturates at 3 shadow cells


def test_type_predictor_release_decrements_when_underused():
    pred = RegisterTypePredictor(entries=64)
    index = 5
    pred.table[index] = 3
    pred.on_release(index, predicted_bank=3, actual_reuses=1, extra_use=False, lost_reuse=0)
    assert pred.table[index] == 2


def test_type_predictor_extra_use_resets():
    pred = RegisterTypePredictor(entries=64)
    index = 9
    pred.table[index] = 2
    pred.on_extra_use(index)
    assert pred.table[index] == 0
    pred.table[index] = 3
    pred.on_release(index, predicted_bank=3, actual_reuses=2, extra_use=True, lost_reuse=0)
    assert pred.table[index] == 0


def test_type_predictor_figure12_classification():
    pred = RegisterTypePredictor(entries=64)
    pred.on_release(0, predicted_bank=1, actual_reuses=1, extra_use=False, lost_reuse=0)
    pred.on_release(1, predicted_bank=2, actual_reuses=1, extra_use=True, lost_reuse=0)
    pred.on_release(2, predicted_bank=0, actual_reuses=0, extra_use=False, lost_reuse=0)
    pred.on_release(3, predicted_bank=0, actual_reuses=0, extra_use=False, lost_reuse=2)
    pred.on_release(4, predicted_bank=2, actual_reuses=0, extra_use=False, lost_reuse=0)
    stats = pred.stats
    assert stats.reuse_correct == 1
    assert stats.reuse_incorrect == 1
    assert stats.no_reuse_correct == 1
    assert stats.no_reuse_incorrect == 1
    assert stats.reuse_unused == 1
    assert stats.exact_hits == 2  # releases 0 and 2 matched exactly


def test_type_predictor_negative_alloc_index_ignored():
    pred = RegisterTypePredictor(entries=64)
    pred.on_release(-1, 0, 0, False, 0)
    pred.on_extra_use(-1)
    pred.on_shadow_starvation(-1)
    # initial-state registers carry no allocating prediction: not classified
    assert pred.stats.releases == 0

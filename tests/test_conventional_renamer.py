"""Unit tests for the baseline merged-RF renamer."""

import pytest

from repro.core.conventional import ConventionalRenamer
from repro.isa.opcodes import Op
from repro.isa.registers import RegClass, xreg

from tests.util import make_inst, never_ready


def test_requires_enough_registers():
    with pytest.raises(ValueError):
        ConventionalRenamer(32, 64)  # need logical+1
    ConventionalRenamer(33, 33)


def test_every_dest_allocates_fresh_register():
    renamer = ConventionalRenamer(40, 40)
    i1 = make_inst(Op.ADD, "x1", ("x2", "x3"))
    i2 = make_inst(Op.ADD, "x1", ("x1", "x3"))
    renamer.rename(i1, never_ready)
    renamer.rename(i2, never_ready)
    assert i1.dest_tag[1] != i2.dest_tag[1]
    assert i1.dest_tag[2] == 0 and i2.dest_tag[2] == 0  # never versions
    assert i2.src_tags[0] == i1.dest_tag  # RAW dependence renamed correctly
    assert renamer.stats.allocations == 2
    assert renamer.stats.reuses == 0


def test_stall_when_free_list_empty():
    renamer = ConventionalRenamer(33, 33)
    i1 = make_inst(Op.MOVI, "x1", ())
    assert renamer.can_rename(i1)
    renamer.rename(i1, never_ready)
    i2 = make_inst(Op.MOVI, "x2", ())
    assert not renamer.can_rename(i2)
    # instructions without destinations are never blocked
    store = make_inst(Op.ST, None, ("x1", "x2"), mem_addr=0)
    assert renamer.can_rename(store)


def test_release_on_commit_of_redefiner():
    renamer = ConventionalRenamer(40, 40)
    i1 = make_inst(Op.MOVI, "x1", ())
    i2 = make_inst(Op.MOVI, "x1", ())
    renamer.rename(i1, never_ready)
    renamer.rename(i2, never_ready)
    free_before = renamer.free_registers(RegClass.INT)
    renamer.commit(i1)  # releases the initial register of x1
    renamer.commit(i2)  # releases i1's register
    assert renamer.free_registers(RegClass.INT) == free_before + 2
    # released register can be re-allocated
    i3 = make_inst(Op.MOVI, "x2", ())
    renamer.rename(i3, never_ready)
    assert i3.dest_tag is not None


def test_recover_restores_map_and_free_list():
    renamer = ConventionalRenamer(40, 40)
    free0 = renamer.free_registers(RegClass.INT)
    for idx in range(1, 5):
        renamer.rename(make_inst(Op.MOVI, f"x{idx}", ()), never_ready)
    assert renamer.free_registers(RegClass.INT) == free0 - 4
    diff = renamer.recover()
    assert diff == 4
    assert renamer.free_registers(RegClass.INT) == free0
    domain = renamer.domains[RegClass.INT]
    assert domain.map.entries == domain.retire_map.entries


def test_values_follow_tags():
    renamer = ConventionalRenamer(40, 40)
    i1 = make_inst(Op.MOVI, "x1", ())
    renamer.rename(i1, never_ready)
    renamer.write(i1.dest_tag, 99)
    assert renamer.read(i1.dest_tag) == 99
    renamer.commit(i1)
    assert renamer.committed_tag(xreg(1)) == i1.dest_tag
    assert renamer.read(renamer.committed_tag(xreg(1))) == 99


def test_fp_and_int_domains_decoupled():
    renamer = ConventionalRenamer(33, 64)
    renamer.rename(make_inst(Op.MOVI, "x1", ()), never_ready)
    assert not renamer.can_rename(make_inst(Op.MOVI, "x2", ()))
    assert renamer.can_rename(make_inst(Op.FLI, "f1", ()))


def test_initial_tags_cover_all_logicals():
    renamer = ConventionalRenamer(40, 40)
    tags = renamer.initial_tags()
    assert len(tags) == 64
    int_tags = [t for t, _v in tags if t[0] == RegClass.INT.value]
    assert len({t[1] for t in int_tags}) == 32

"""Unit tests for the dataflow analyses (Figures 1-3, 9) on hand-built
streams with exactly known answers."""

import pytest

from repro.analysis import analyze_chains, analyze_stream, measure_shadow_demand
from repro.isa.opcodes import Op
from repro.workloads import BENCHMARKS, SyntheticWorkload

from tests.util import make_inst


def seqd(insts):
    for index, dyn in enumerate(insts):
        dyn.seq = index
    return insts


def test_single_use_chain_classified_redefine_same():
    insts = seqd([
        make_inst(Op.ADD, "x1", ("x8", "x9")),
        make_inst(Op.ADD, "x1", ("x1", "x9")),  # sole consumer, redefines x1
        make_inst(Op.ADD, "x2", ("x1", "x9")),  # sole consumer, different dest
    ])
    result = analyze_stream(insts)
    assert result.dest_insts == 3
    assert result.single_use_redefine_same == 1
    assert result.single_use_redefine_other == 1


def test_multi_consumer_value_not_single_use():
    insts = seqd([
        make_inst(Op.ADD, "x1", ("x8", "x9")),
        make_inst(Op.ADD, "x2", ("x1", "x9")),
        make_inst(Op.ADD, "x3", ("x1", "x9")),  # second consumer of x1's value
    ])
    result = analyze_stream(insts)
    assert result.single_use_redefine_same == 0
    assert result.single_use_redefine_other == 0
    assert result.consumer_histogram.get(2) == 1


def test_consumer_histogram_buckets():
    insts = [make_inst(Op.ADD, "x1", ("x8", "x9"))]
    insts += [make_inst(Op.ADD, f"x{i+2}", ("x1", "x9")) for i in range(7)]
    result = analyze_stream(seqd(insts))
    # 7 consumers -> "six or more" bucket
    assert result.consumer_histogram.get(6) == 1


def test_store_consumer_counts_for_figure2_not_figure1():
    insts = seqd([
        make_inst(Op.ADD, "x1", ("x8", "x9")),
        make_inst(Op.ST, None, ("x1", "x9"), mem_addr=0),  # sole consumer: a store
    ])
    result = analyze_stream(insts)
    assert result.consumer_histogram.get(1) == 1  # Figure 2 sees one use
    assert result.single_consumer_inst_fraction == 0.0  # Figure 1 needs a dest


def test_same_register_twice_counts_once():
    insts = seqd([
        make_inst(Op.ADD, "x1", ("x8", "x9")),
        make_inst(Op.MUL, "x1", ("x1", "x1")),  # reads the value twice
    ])
    result = analyze_stream(insts)
    assert result.consumer_histogram.get(1) == 1
    assert result.single_use_redefine_same == 1


def test_consumer_fractions_sum_to_one():
    workload = SyntheticWorkload(BENCHMARKS["povray"], total_insts=6000)
    result = analyze_stream(iter(workload))
    fractions = result.consumer_fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)


# --------------------------------------------------------------- Figure 3
def test_chain_depths():
    insts = seqd([
        make_inst(Op.ADD, "x1", ("x8", "x9")),
        make_inst(Op.ADD, "x1", ("x1", "x9")),  # depth 1
        make_inst(Op.ADD, "x1", ("x1", "x9")),  # depth 2
        make_inst(Op.ADD, "x1", ("x1", "x9")),  # depth 3
        make_inst(Op.ADD, "x2", ("x1", "x9")),  # depth 4 -> "more"
        make_inst(Op.ST, None, ("x2", "x9"), mem_addr=0),
    ])
    result = analyze_chains(insts)
    assert result.depth_histogram == {1: 1, 2: 1, 3: 1, 4: 1}
    assert result.reuse_fraction(1) == pytest.approx(1 / 5)
    assert result.reuse_fraction(3) == pytest.approx(3 / 5)
    assert result.reuse_fraction(None) == pytest.approx(4 / 5)


def test_chain_broken_by_second_consumer():
    insts = seqd([
        make_inst(Op.ADD, "x1", ("x8", "x9")),
        make_inst(Op.ADD, "x2", ("x1", "x9")),
        make_inst(Op.ADD, "x3", ("x1", "x9")),  # x1's value used twice: no reuse
    ])
    result = analyze_chains(insts)
    assert result.depth_histogram == {}


def test_figure3_series_keys():
    result = analyze_chains(iter(SyntheticWorkload(BENCHMARKS["gsm"], 4000)))
    series = result.figure3_series()
    assert set(series) == {"one", "two", "three", "more"}
    assert all(0.0 <= v <= 1.0 for v in series.values())


def test_cross_class_sources_not_reused():
    insts = seqd([
        make_inst(Op.FCVT, "f1", ("x1",)),   # int -> fp
        make_inst(Op.FTOI, "x2", ("f1",)),   # fp value, int dest: class mismatch
    ])
    result = analyze_chains(insts)
    assert result.depth_histogram == {}


# --------------------------------------------------------------- Figure 9
def test_shadow_demand_measurement():
    workload = SyntheticWorkload(BENCHMARKS["milc"], total_insts=5000)
    demand = measure_shadow_demand(list(workload), total_regs=192,
                                   sample_interval=32)
    assert demand.samples[1], "no samples collected"
    table = {k: {c: demand.registers_needed(k, c) for c in (0.5, 0.9, 0.99)}
             for k in (1, 2, 3)}
    # more shadow cells are needed by strictly fewer registers
    for coverage in (0.5, 0.9):
        assert table[1][coverage] >= table[2][coverage] >= table[3][coverage]
    # higher coverage requires at least as many registers
    assert table[1][0.99] >= table[1][0.5]

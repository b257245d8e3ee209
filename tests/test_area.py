"""Tests for the CACTI-lite area model and equal-area configuration."""

import pytest

from repro.area import (
    banked_rf_area,
    baseline_area,
    equal_area_banks,
    issue_queue_overhead_area,
    predictor_area,
    proposed_area,
    prt_area,
    register_file_area,
    shadow_cells_area,
    table2,
    total_overhead_area,
    validate_table3,
)
from repro.area.cacti_lite import COUNTER_BITS, PREDICTOR_ENTRIES
from repro.core.register_file import RegisterFileConfig
from repro.pipeline.config import TABLE_III, MachineConfig


# ------------------------------------------------------------------ Table II
def test_table2_integer_rf_calibration():
    assert register_file_area(128, 64) == pytest.approx(0.2834, rel=0.01)


def test_table2_fp_rf_calibration():
    assert register_file_area(128, 128) == pytest.approx(0.4988, rel=0.01)


def test_table2_overheads_calibration():
    assert prt_area() == pytest.approx(5.08e-4, rel=0.01)
    assert issue_queue_overhead_area() == pytest.approx(1.48e-3, rel=0.01)
    assert predictor_area() == pytest.approx(3.1e-3, rel=0.01)
    assert total_overhead_area() == pytest.approx(5.085e-3, rel=0.02)


def test_priced_machine_is_the_simulated_default():
    config = MachineConfig()
    assert (COUNTER_BITS, PREDICTOR_ENTRIES) == (
        config.counter_bits, config.type_predictor_entries)


def test_table2_render():
    rows = table2()
    assert "PRT" in rows and "Total Overhead" in rows
    assert rows["Integer Register File (64-bit registers)"][1] < \
        rows["Floating-point Register File (128-bit registers)"][1]


# ------------------------------------------------------------------ model shape
def test_area_scales_with_ports_quadratically():
    few = register_file_area(64, 64, read_ports=2, write_ports=1)
    many = register_file_area(64, 64, read_ports=8, write_ports=4)
    assert many > few * 3


def test_shadow_cells_port_independent_and_cheap():
    # a shadow copy is far cheaper than a multi-ported register
    one_reg = register_file_area(1, 64)
    one_shadow = shadow_cells_area(1, 64)
    assert one_shadow < one_reg / 10


def test_banked_rf_area_adds_shadows():
    flat = RegisterFileConfig.flat(48)
    banked = RegisterFileConfig(bank_sizes=(36, 4, 4, 4))
    assert banked_rf_area(banked) == pytest.approx(
        register_file_area(48) + shadow_cells_area(4 + 8 + 12)
    )
    assert banked_rf_area(flat) == pytest.approx(register_file_area(48))


# ------------------------------------------------------------------ equal area
@pytest.mark.parametrize("baseline", [48, 56, 64, 72, 80, 96, 112, 128])
def test_equal_area_fits_budget(baseline):
    banks = equal_area_banks(baseline)
    assert proposed_area(banks) <= baseline_area(baseline) * 1.001
    # and is maximal: one more conventional register would not fit
    bigger = (banks[0] + 1, *banks[1:])
    assert proposed_area(bigger) > baseline_area(baseline)


def test_equal_area_monotone_in_baseline():
    totals = [sum(equal_area_banks(n)) for n in (48, 64, 80, 96, 112)]
    assert totals == sorted(totals)


def test_equal_area_leaves_room_for_committed_state():
    banks = equal_area_banks(48)
    assert sum(banks) >= 36  # 32 logical + headroom


def test_equal_area_too_small_baseline_rejected():
    with pytest.raises(ValueError):
        equal_area_banks(30)


def test_paper_table3_is_conservative():
    """The paper's Table III rows never exceed the baseline area under our
    calibrated model (they under-use the budget; see EXPERIMENTS.md)."""
    rows = validate_table3(TABLE_III)
    assert len(rows) == 7
    for _baseline, _banks, base_mm2, prop_mm2, utilisation in rows:
        assert prop_mm2 <= base_mm2
        assert 0.75 <= utilisation <= 1.0

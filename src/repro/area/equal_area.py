"""Equal-area register-file configuration (paper Table III).

The paper evaluates the proposed scheme at the *same total area* as each
baseline register file: the scheme's overheads (PRT, issue-queue bits,
predictor) plus the shadow cells are paid for by shrinking the number of
registers.  ``equal_area_banks`` derives a bank split for arbitrary
baseline sizes using the calibrated area model; the paper's own Table III
rows are kept verbatim in :data:`repro.pipeline.config.TABLE_III` and
validated (they never exceed the baseline area) by ``validate_table3``.
A configuration's overheads are priced for its own counters and predictor.
"""

from __future__ import annotations

from functools import lru_cache

from repro.area.cacti_lite import (
    COUNTER_BITS,
    PREDICTOR_ENTRIES,
    banked_rf_area,
    port_scheme_rf_area,
    register_file_area,
    total_overhead_area,
)
from repro.core.register_file import RegisterFileConfig
from repro.pipeline.config import TABLE_III

#: Logical registers per class: bank sizing must leave room for committed state.
_MIN_TOTAL_REGS = 36


def baseline_area(num_regs: int, bits: int = 64) -> float:
    """Area of the baseline register file, in mm²."""
    return register_file_area(num_regs, bits)


def proposed_area(banks: tuple[int, ...], bits: int = 64,
                  counter_bits: int = COUNTER_BITS,
                  predictor_entries: int = PREDICTOR_ENTRIES) -> float:
    """Area of the proposed configuration (banked RF + scheme overheads
    for its version counters and register-type predictor)."""
    config = RegisterFileConfig(bank_sizes=tuple(banks))
    return banked_rf_area(config, bits) + total_overhead_area(
        config.total_regs, counter_bits, predictor_entries)


def _shadow_bank_size(baseline_regs: int) -> int:
    """Per-bank shadow register count, following the paper's progression
    (4 for the smallest files, 6 in the middle, 8 and capped thereafter)."""
    if baseline_regs < 56:
        return 4
    if baseline_regs < 72:
        return 6
    return 8


@lru_cache(maxsize=None)
def equal_area_banks(baseline_regs: int, bits: int = 64,
                     counter_bits: int = COUNTER_BITS,
                     predictor_entries: int = PREDICTOR_ENTRIES) -> tuple:
    """Largest (n0, s, s, s) configuration whose area fits the baseline's.

    Cached: the result is a pure function of its arguments, and the
    sampling engine re-derives the bank split for every per-window
    processor it builds."""
    budget = baseline_area(baseline_regs, bits)
    s = _shadow_bank_size(baseline_regs)
    n0 = max(_MIN_TOTAL_REGS - 3 * s, 1)
    priced = (bits, counter_bits, predictor_entries)
    if proposed_area((n0, s, s, s), *priced) > budget:
        raise ValueError(
            f"baseline of {baseline_regs} registers is too small for an "
            f"equal-area banked configuration"
        )
    while proposed_area((n0 + 1, s, s, s), *priced) <= budget:
        n0 += 1
    return (n0, s, s, s)


def equal_area_regs(baseline_regs: int, scheme: str, bits: int = 64) -> int:
    """Largest register count a port-reduced file can hold at equal area.

    A port-reduction scheme (``repro.core.read_ports``) shrinks every bit
    cell, so at the conventional baseline's area budget the same file can
    hold *more* registers.  This is the conventional-baseline analogue of
    :func:`equal_area_banks`: the saved port area is converted back into
    extra rename registers so the comparison against the paper's sharing
    scheme stays equal-area.  ``scheme == 'none'`` returns the baseline
    unchanged.
    """
    if scheme == "none":
        return baseline_regs
    budget = baseline_area(baseline_regs, bits)
    if port_scheme_rf_area(scheme, baseline_regs, bits) > budget:
        # degenerate calibration (overheads dominate): never shrink
        return baseline_regs
    n = baseline_regs
    while port_scheme_rf_area(scheme, n + 1, bits) <= budget:
        n += 1
    return n


def validate_table3():
    """Check every row of the paper's Table III (:data:`TABLE_III`) fits
    within the baseline area.

    Returns a list of (baseline, banks, baseline_mm2, proposed_mm2,
    utilisation) rows for reporting.
    """
    rows = []
    for baseline_regs, banks in sorted(TABLE_III.items()):
        base = baseline_area(baseline_regs)
        prop = proposed_area(banks)
        rows.append((baseline_regs, banks, base, prop, prop / base))
    return rows

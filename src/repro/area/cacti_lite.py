"""CACTI-lite: analytic area model calibrated to the paper's Table II.

The paper used CACTI 6.5 to size the register files and the scheme's
overhead structures.  We use a standard wire-pitch-limited model:

* a register-file bit cell's footprint grows quadratically with its port
  count (each port adds a horizontal and a vertical wire track), so
  ``bit_area = K * (ports + 1)**2``;
* each register carries a port-count-dependent periphery cost (word-line
  drivers, decode) modelled as a per-register constant;
* shadow cells (cross-coupled inverter pairs reached through a pass
  transistor, Figure 6) are *port-independent* and therefore tiny relative
  to a multi-ported main cell.

The two free constants (K and the per-register overhead) are calibrated
exactly against Table II's register files (128 x 64-bit = 0.2834 mm²,
128 x 128-bit = 0.4988 mm² at 8 read + 4 write ports); the SRAM/CAM bit
constants for the PRT, issue-queue extension and predictor are calibrated
against Table II's overhead rows.  All areas are in mm².
"""

from __future__ import annotations

from repro.core.read_ports import (
    BANK_READ_PORTS,
    BYPASS_DEPTH,
    BYPASS_FILTER_READ_PORTS,
    READ_BANKS,
)
from repro.core.register_file import RegisterFileConfig
from repro.pipeline.config import IQ_SIZE

#: Default register-file port counts for the 3-wide core (2 reads + 1 write
#: per issue slot, rounded to the paper-era convention of 8R/4W).
READ_PORTS = 8
WRITE_PORTS = 4

# ---- the priced machine (Table II) ------------------------------------------
#: PRT and issue-queue version-counter width and register-type predictor
#: entries (a configuration is priced for its own) and bits per entry
COUNTER_BITS = 2
PREDICTOR_ENTRIES = 512
PREDICTOR_BITS = 2
#: physical-register tag width the bypass filter compares
TAG_BITS = 10

# ---- calibration (see module docstring) -----------------------------------
_UM2_PER_MM2 = 1e6

#: bit-cell coefficient: bit_area(ports) = _K_BIT * (ports + 1)^2  [µm²]
_K_BIT = 26.294 / (READ_PORTS + WRITE_PORTS + 1) ** 2
#: per-register periphery (decoders, word-line drivers) [µm²]
_REG_OVERHEAD = 531.2
#: one shadow bit: 2 cross-coupled inverters + pass transistor [µm²]
_SHADOW_BIT = 1.2
#: plain SRAM bit (PRT) [µm²] — calibrated: 384 bits -> 5.08e-4 mm²
_SRAM_BIT = 508.0 / 384.0
#: CAM-ish issue-queue tag bit [µm²] — calibrated: 160 bits -> 1.48e-3 mm²
_CAM_BIT = 1480.0 / 160.0
#: predictor table bit [µm²] — calibrated: 1 Kbit -> 3.1e-3 mm²
_PRED_BIT = 3100.0 / 1024.0


def bit_cell_area(ports: int) -> float:
    """Area of one multi-ported register bit cell, in µm²."""
    return _K_BIT * (ports + 1) ** 2


def register_file_area(
    num_regs: int,
    bits: int = 64,
    read_ports: int = READ_PORTS,
) -> float:
    """Area of a conventional (no shadow cells) register file with
    ``read_ports`` read and :data:`WRITE_PORTS` write ports, in mm²."""
    ports = read_ports + WRITE_PORTS
    per_reg = bits * bit_cell_area(ports) + _REG_OVERHEAD
    return num_regs * per_reg / _UM2_PER_MM2


def shadow_cells_area(num_copies: int, bits: int = 64) -> float:
    """Area of ``num_copies`` full-width shadow copies, in mm².

    Port-independent: this is the key cost asymmetry the design exploits
    (Section IV-C1).
    """
    return num_copies * bits * _SHADOW_BIT / _UM2_PER_MM2


def banked_rf_area(config: RegisterFileConfig, bits: int = 64) -> float:
    """Area of the proposed multi-bank register file, in mm²."""
    main = register_file_area(config.total_regs, bits)
    return main + shadow_cells_area(config.total_shadow_cells, bits)


# ---- read-port-reduction schemes (arXiv 2502.00147) -------------------------
# Each scheme's port geometry comes from repro.core.read_ports, the same
# constants the pipeline simulates.
def bypass_filter_overhead_area() -> float:
    """Bypass-filter control overhead, in mm².

    Each issue slot compares up to three source tags against the last
    ``BYPASS_DEPTH`` cycles of writeback tags (CAM match against the
    bypass bus), deciding per operand whether a physical read port is
    needed.
    """
    bits = IQ_SIZE * 3 * TAG_BITS * BYPASS_DEPTH
    return bits * _CAM_BIT / _UM2_PER_MM2


def banked_arbiter_overhead_area() -> float:
    """Banked-read arbiter overhead, in mm².

    Per-bank demand counters plus grant/select logic, and a small delay
    field per issue-queue entry for the scheduled read slot.
    """
    bits = READ_BANKS * (8 + 4 * BANK_READ_PORTS) + IQ_SIZE * 4
    return bits * _SRAM_BIT / _UM2_PER_MM2


def port_scheme_rf_area(scheme: str, num_regs: int, bits: int = 64) -> float:
    """Register file + control overhead under a port-reduction scheme, mm².

    ``bypass_filter`` keeps a flat file at half the read ports;
    ``banked_arbiter`` prices the per-bank cell (each bank's bit cells
    see only that bank's read ports, plus all write ports).  ``none`` is
    the conventional 8R/4W file, so :func:`repro.area.equal_area` can
    treat every scheme uniformly.
    """
    if scheme == "none":
        return register_file_area(num_regs, bits)
    if scheme == "bypass_filter":
        return (register_file_area(num_regs, bits, BYPASS_FILTER_READ_PORTS)
                + bypass_filter_overhead_area())
    if scheme == "banked_arbiter":
        return (register_file_area(num_regs, bits, BANK_READ_PORTS)
                + banked_arbiter_overhead_area())
    raise ValueError(f"unknown port scheme {scheme!r}")


# ---- overhead structures (Table II rows) ------------------------------------
def prt_area(num_regs: int = 128, counter_bits: int = COUNTER_BITS) -> float:
    """PRT: one Read bit + N-bit counter per physical register, in mm²."""
    bits = num_regs * (1 + counter_bits)
    return bits * _SRAM_BIT / _UM2_PER_MM2


def issue_queue_overhead_area(counter_bits: int = COUNTER_BITS) -> float:
    """Extra version bits in the issue queue (2 per source tag), in mm²."""
    bits = IQ_SIZE * 2 * counter_bits
    return bits * _CAM_BIT / _UM2_PER_MM2


def predictor_area(entries: int = PREDICTOR_ENTRIES) -> float:
    """Register-type predictor table, in mm²."""
    return entries * PREDICTOR_BITS * _PRED_BIT / _UM2_PER_MM2


def total_overhead_area(num_regs: int = 128, counter_bits: int = COUNTER_BITS,
                        predictor_entries: int = PREDICTOR_ENTRIES) -> float:
    """Total added area of the scheme's new/extended structures, in mm²."""
    return (prt_area(num_regs, counter_bits)
            + issue_queue_overhead_area(counter_bits)
            + predictor_area(predictor_entries))


def access_time_ns(
    num_regs: int, bits: int = 64, shadow_cells_per_reg: float = 0.0,
) -> float:
    """First-order register-file access time, in ns.

    Wire-delay model: word-line delay grows with the row width (bits x
    cell pitch), bit-line delay with the column height (registers x cell
    pitch), plus fixed decode/sense time.  Shadow cells hang off the main
    cell through a pass transistor and add *no gate capacitance* to the
    ports; they only stretch the word line slightly — the paper's
    Section IV-C2 claim is that this costs well under 1%, which
    ``benchmarks/test_claim_access_time.py`` checks against this model.
    """
    pitch = (READ_PORTS + WRITE_PORTS + 1) * 0.14e-3  # track pitch in mm
    # shadow appendages stretch the word line but hang no gate capacitance
    # on it (they are driven by separate checkpoint/recover signals), so
    # the effective RC penalty per shadow cell is small
    wordline_mm = bits * pitch * (1.0 + 0.003 * shadow_cells_per_reg)
    bitline_mm = num_regs * pitch
    # RC-ish: delay quadratic-in-length terms kept linear for short wires
    wire_ns = 0.05 * (wordline_mm + bitline_mm) +         0.8 * (wordline_mm ** 2 + bitline_mm ** 2)
    fixed_ns = 0.15  # decode + sense amplifier
    return fixed_ns + wire_ns


def table2() -> dict[str, tuple[str, float]]:
    """Reproduce the paper's Table II: unit -> (configuration, area mm²)."""
    return {
        "Integer Register File (64-bit registers)": (
            "128 Registers",
            register_file_area(128, 64),
        ),
        "Floating-point Register File (128-bit registers)": (
            "128 Registers",
            register_file_area(128, 128),
        ),
        "PRT": ("Overhead", prt_area()),
        "Issue Queue": ("Overhead", issue_queue_overhead_area()),
        "Register Predictor": ("Overhead", predictor_area()),
        "Total Overhead": ("", total_overhead_area()),
    }

"""Machine configuration (paper Table I) and register-file configurations
(paper Table III)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.core.register_file import RegisterFileConfig
    from repro.core.renamer import BaseRenamer
    from repro.frontend.branch_predictor import BranchUnit

#: Paper Table I, kept verbatim for the Table I bench.
TABLE_I: dict[str, dict[str, str]] = {
    "Core": {
        "ISA": "ARMv8-like toy RISC",
        "Frequency": "2.0 GHz",
        "ROB": "128 entries",
        "Issue Queue": "40 entries",
        "Decode/Dispatch width": "3",
        "Fetch Queue": "32 instructions",
        "Branch predictor": "gshare + 2K BTB, 15-cycle misprediction penalty",
    },
    "Caches": {
        "L1-D": "32 KB, 2-way, 1 cycle",
        "L1-I": "48 KB, 3-way, 1 cycle",
        "L2": "1 MB, 16-way, 12 cycles",
        "Line size": "64 bytes",
        "TLB": "48-entry fully-associative L1 TLB",
    },
    "Prefetcher": {"Type": "Stride (degree 1)"},
    "DRAM": {
        "Type": "DDR3 1600 MHz, 2 ranks/channel, 8 banks/rank, 8 KB rows",
        "Timings": "tCAS = tRCD = tRP = 13.75 ns",
    },
}

#: issue-queue entries (Table I): the pipeline's issue queue, and the
#: queue whose version bits the area model prices
IQ_SIZE = 40

#: Paper Table III: baseline register count -> proposed bank sizes
#: (0-shadow, 1-shadow, 2-shadow, 3-shadow) at equal area.
TABLE_III: dict[int, tuple[int, int, int, int]] = {
    48: (28, 4, 4, 4),
    56: (28, 6, 6, 6),
    64: (36, 6, 6, 6),
    72: (36, 8, 8, 8),
    80: (42, 8, 8, 8),
    96: (58, 8, 8, 8),
    112: (75, 8, 8, 8),
}


def rf_config_for(baseline_regs: int, bits: int = 64) -> RegisterFileConfig:
    """Equal-area banked configuration for a baseline register count.

    Derived from the calibrated CACTI-lite area model, following the
    paper's methodology ("we adjust the number of registers in the
    register file for our renaming scheme in such a way that the total
    area becomes the same as the baseline").  The paper's own Table III
    rows are kept in :data:`TABLE_III` for the Table III experiment; they
    are *more conservative* than equal area under our calibration (see
    EXPERIMENTS.md), so the performance experiments use the area-model
    result, exactly as the paper's method prescribes.
    """
    # imported here: a configuration is built (and hashed) without
    # loading the simulator
    from repro.area.equal_area import equal_area_banks
    from repro.core.register_file import RegisterFileConfig

    return RegisterFileConfig(bank_sizes=equal_area_banks(baseline_regs, bits))


@dataclass(frozen=True)
class MachineConfig:
    """Everything the processor model needs; defaults follow Table I.

    Frozen, ``fu_config`` included: edits go through
    ``dataclasses.replace``, which builds a new instance, so the
    per-instance memos (:meth:`canonical_json`, the kernel fingerprint)
    can never describe a stale configuration and one instance can be
    shared by every sweep point that uses it.
    """

    # widths
    fetch_width: int = 3
    rename_width: int = 3  # decode/dispatch width
    issue_width: int = 4
    commit_width: int = 3

    # structures (the issue queue is IQ_SIZE; the fetch queue, BTB and
    # misprediction penalty are constants of repro.frontend)
    rob_size: int = 128

    # branch handling
    branch_predictor: str = "gshare"

    # functional units: (kind, (count, latency, pipelined)) pairs; a dict
    # given here is frozen into pairs by __post_init__
    fu_config: tuple[tuple[str, tuple[int, int, bool]], ...] = (
        ("alu", (3, 1, True)),
        ("mul", (1, 3, True)),
        ("div", (1, 12, False)),
        ("fpu", (2, 4, True)),
        ("fpdiv", (1, 16, False)),
        ("branch", (1, 1, True)),
        ("mem", (2, 1, True)),  # latency here = address generation only
    )

    # renaming scheme
    scheme: str = "conventional"  # 'conventional' | 'sharing'
    int_regs: int = 128  # baseline size (conventional) / Table III key (sharing)
    fp_regs: int = 128
    int_banks: Optional[tuple[int, ...]] = None  # explicit banks override
    fp_banks: Optional[tuple[int, ...]] = None
    counter_bits: int = 2
    type_predictor_entries: int = 512

    # wrong-path speculation: when set, mispredicted branches keep
    # fetching synthetic wrong-path instructions that are renamed and
    # executed speculatively, then squashed by a rename walk-back when the
    # branch resolves (shadow-cell restores under the sharing scheme).
    # When clear, fetch stalls at the misprediction (DESIGN.md section 2).
    model_wrong_path: bool = False

    # asynchronous interrupts: deliver one every N cycles (None = never).
    # Each interrupt flushes the pipeline at the commit boundary, recovers
    # precise state (shadow cells under the sharing scheme) and replays —
    # the Section IV-B "interrupts" case.
    interrupt_interval: Optional[int] = None

    # read-port-reduction scheme on the register file (arXiv 2502.00147):
    # 'none' | 'bypass_filter' | 'banked_arbiter'.  'none' models unlimited
    # ports; each other scheme's port geometry is fixed by the constants in
    # repro.core.read_ports, which the area model prices too.
    rf_port_scheme: str = "none"

    # verification of dataflow values at issue/writeback (disable for speed)
    verify_values: bool = True

    # safety valve for the cycle loop
    max_cycles: int = 50_000_000

    def __post_init__(self) -> None:
        if isinstance(self.fu_config, dict):
            object.__setattr__(self, "fu_config", tuple(self.fu_config.items()))

    # ------------------------------------------------------------------ identity
    def canonical_json(self) -> str:
        """Sorted-key JSON of every field, nested ``fu_config`` included: the
        configuration's identity in result-cache keys and kernel
        fingerprints, so any field edit changes both.  Cached on the
        instance."""
        text = self.__dict__.get("_canonical_json")
        if text is None:
            text = json.dumps(asdict(self), sort_keys=True, default=repr)
            object.__setattr__(self, "_canonical_json", text)
        return text

    # ------------------------------------------------------------------ factories
    def make_renamer(self) -> BaseRenamer:
        if self.scheme == "conventional":
            from repro.core.conventional import ConventionalRenamer

            return ConventionalRenamer(self.int_regs, self.fp_regs)
        if self.scheme == "early":
            from repro.core.early_release import EarlyReleaseRenamer

            return EarlyReleaseRenamer(self.int_regs, self.fp_regs)
        if self.scheme not in ("sharing", "hinted"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        from repro.core.register_file import RegisterFileConfig

        if self.scheme == "sharing":
            from repro.core.sharing import SharingRenamer as renamer_class
        else:
            from repro.core.hinted import HintedSharingRenamer as renamer_class
        int_cfg = (
            RegisterFileConfig(bank_sizes=tuple(self.int_banks))
            if self.int_banks
            else rf_config_for(self.int_regs)
        )
        fp_cfg = (
            RegisterFileConfig(bank_sizes=tuple(self.fp_banks))
            if self.fp_banks
            else rf_config_for(self.fp_regs, bits=128)
        )
        return renamer_class(
            int_cfg,
            fp_cfg,
            counter_bits=self.counter_bits,
            predictor_entries=self.type_predictor_entries,
        )

    def make_branch_unit(self) -> BranchUnit:
        from repro.frontend.branch_predictor import BranchUnit

        return BranchUnit(kind=self.branch_predictor)

"""Multi-bank register file with shadow cells.

The paper's register file (Section IV-C, Figure 5) is split into four
banks: a conventional bank (no shadow cells) and banks whose registers
embed one, two or three shadow cells.  A register in an *n*-shadow bank can
hold up to *n+1* versions simultaneously: the newest in the directly
accessible main cells, older ones in the port-independent shadow cells.

In simulation we store every live ``(physical register, version)`` value so
that (a) issue-time operand verification can check that renaming never
corrupts dataflow, and (b) precise-exception recovery can restore older
versions exactly as the shadow-cell hardware would.  Capacity constraints
(a register can only be reused while it has free shadow cells) are enforced
by the renamer at rename time, mirroring the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

Value = Union[int, float]


@dataclass(frozen=True)
class RegisterFileConfig:
    """Sizes of the four banks, ordered by shadow-cell count (0,1,2,3).

    The baseline configuration is expressed as a single conventional bank:
    ``RegisterFileConfig.flat(n)``.
    """

    bank_sizes: tuple[int, ...] = (28, 4, 4, 4)

    @staticmethod
    def flat(num_regs: int) -> "RegisterFileConfig":
        return RegisterFileConfig(bank_sizes=(num_regs,))

    @property
    def total_regs(self) -> int:
        return sum(self.bank_sizes)

    @property
    def num_banks(self) -> int:
        return len(self.bank_sizes)

    def shadow_cells_of_bank(self, bank: int) -> int:
        return bank  # bank index == number of shadow cells by construction

    def bank_of(self, phys: int) -> int:
        if phys < 0:
            raise ValueError(f"negative physical register {phys}")
        upper = 0
        for bank, size in enumerate(self.bank_sizes):
            upper += size
            if phys < upper:
                return bank
        raise ValueError(f"physical register {phys} out of range")

    def shadow_cells_of(self, phys: int) -> int:
        return self.shadow_cells_of_bank(self.bank_of(phys))

    def bank_range(self, bank: int) -> range:
        start = sum(self.bank_sizes[:bank])
        return range(start, start + self.bank_sizes[bank])

    @property
    def total_shadow_cells(self) -> int:
        return sum(bank * size for bank, size in enumerate(self.bank_sizes))


class BankedRegisterFile:
    """Value storage for one register class (INT or FP).

    Values are stored per register as ``{phys: {version: value}}`` so
    releasing a register (``drop_register``, on every allocation/release)
    and discarding squashed versions (``drop_above``) touch only that
    register's handful of versions instead of scanning the whole file.
    Negative ``phys`` ids are the auxiliary registers used by
    single-use-misprediction repair micro-ops (paper Figure 8) and have no
    capacity constraint.
    """

    def __init__(self, config: RegisterFileConfig) -> None:
        self.config = config
        self._values: dict[int, dict[int, Value]] = {}
        #: capacity (versions) per physical register, indexed by phys id
        self._capacity = tuple(
            config.shadow_cells_of(phys) + 1 for phys in range(config.total_regs)
        )

    def write(self, phys: int, version: int, value: Value) -> None:
        if phys >= 0 and version >= self._capacity[phys]:
            raise AssertionError(
                f"write of version {version} exceeds capacity "
                f"{self._capacity[phys]} of p{phys}"
            )
        versions = self._values.get(phys)
        if versions is None:
            self._values[phys] = {version: value}
        else:
            versions[version] = value

    def read(self, phys: int, version: int) -> Value:
        try:
            return self._values[phys][version]
        except KeyError:
            raise AssertionError(f"read of unwritten register p{phys}.{version}") from None

    def has(self, phys: int, version: int) -> bool:
        versions = self._values.get(phys)
        return versions is not None and version in versions

    def drop_register(self, phys: int) -> None:
        """Free all versions of ``phys`` (called when the register is released)."""
        self._values.pop(phys, None)

    def drop_above(self, phys: int, version: int) -> None:
        """Discard squashed speculative versions newer than ``version``."""
        versions = self._values.get(phys)
        if not versions:
            return
        for v in [v for v in versions if v > version]:
            del versions[v]

    def live_version_counts(self) -> dict[int, int]:
        """Map phys -> number of live versions (for Figure 9 demand sampling)."""
        return {
            phys: len(versions)
            for phys, versions in self._values.items()
            if phys >= 0 and versions
        }

    # ------------------------------------------------------------ fault injection
    def cells(self) -> list[tuple[int, int, Value]]:
        """Every stored (phys, version, value) cell, in deterministic order.

        Fault-injection target enumeration (:mod:`repro.faults`): the list
        covers main cells and shadow cells alike — classification into
        live/shadow is the renamer's job, which knows the maps and PRT.
        Auxiliary (negative-id) repair registers are excluded; they are not
        architecturally addressable storage.
        """
        return sorted(
            (phys, version, value)
            for phys, versions in self._values.items() if phys >= 0
            for version, value in versions.items()
        )

    def corrupt(self, phys: int, version: int, value: Value) -> None:
        """Overwrite one storage cell in place, modelling a transient fault.

        Unlike :meth:`write` this bypasses the version-capacity assertion —
        a particle strike does not consult the allocation protocol — but it
        only mutates cells that already exist; planting state into unused
        storage is done with :meth:`write` by the injector for free
        registers (version 0 always fits).
        """
        versions = self._values.get(phys)
        if versions is None or version not in versions:
            raise KeyError(f"no stored cell p{phys}.{version} to corrupt")
        versions[version] = value

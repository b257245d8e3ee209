"""Program container: assembled instructions plus initial data memory."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.isa.instruction import Instruction

#: Base address of the data segment laid out by the assembler.
DATA_BASE = 0x1_0000

#: Instruction size in bytes (used to map instruction index -> fetch address).
INST_BYTES = 4

#: log2 of the page size (4 KiB pages): the TLB's reach and the
#: first-touch fault model's granule.
PAGE_BITS = 12


@dataclass
class Program:
    """An assembled program.

    ``insts`` is indexed by PC (instruction index).  ``labels`` maps label
    names to either instruction indices (text labels) or byte addresses
    (data labels).  ``data`` holds the initial contents of memory as a
    mapping from 8-byte-aligned addresses to values.
    """

    insts: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data: dict[int, Union[int, float]] = field(default_factory=dict)
    entry: int = 0

    def __len__(self) -> int:
        return len(self.insts)

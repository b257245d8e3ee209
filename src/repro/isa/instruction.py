"""Static instruction representation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.isa.opcodes import Op, OpInfo, OPCODES
from repro.isa.registers import RegRef


@dataclass(frozen=True)
class Instruction:
    """One static instruction of a :class:`repro.isa.Program`.

    ``target`` holds the branch target as an instruction index (filled in by
    the assembler after label resolution).  ``imm`` is the integer or float
    immediate for immediate-form and memory instructions.
    """

    op: Op
    dest: Optional[RegRef] = None
    srcs: tuple[RegRef, ...] = ()
    imm: Union[int, float, None] = None
    target: Optional[int] = None
    label: Optional[str] = None  # unresolved label name (pre-assembly)

    @property
    def info(self) -> OpInfo:
        return OPCODES[self.op]

    def __str__(self) -> str:
        info = self.info
        parts = []
        if self.dest is not None:
            parts.append(str(self.dest))
        if info.is_store:
            parts.append(str(self.srcs[0]))
            parts.append(f"{self.imm}({self.srcs[1]})")
        elif info.is_load:
            parts.append(f"{self.imm}({self.srcs[0]})")
        else:
            parts.extend(str(s) for s in self.srcs)
            if info.has_imm or info.has_fimm:
                parts.append(str(self.imm))
        if info.has_label:
            parts.append(self.label if self.label is not None else f"@{self.target}")
        return f"{self.op.value} " + ", ".join(parts) if parts else self.op.value

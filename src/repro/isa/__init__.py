"""Toy RISC ISA used by the simulator.

The ISA is deliberately small but complete enough to write real kernels
(GMM scoring, DNN layers, DCT, FIR, ...): 32 integer registers (``x0``..
``x31``), 32 floating-point registers (``f0``..``f31``), loads/stores,
conditional branches, calls/returns and a ``trap`` instruction for precise
exception testing.  Programs are assembled from text with
:func:`repro.isa.assemble` and executed functionally with
:class:`repro.isa.FunctionalExecutor`, which yields the dynamic instruction
stream (:class:`repro.isa.DynInst`) consumed by the timing pipeline.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "RegClass": ".registers",
    "RegRef": ".registers",
    "INT_REGS": ".registers",
    "FP_REGS": ".registers",
    "reg": ".registers",
    "xreg": ".registers",
    "freg": ".registers",
    "Op": ".opcodes",
    "OpInfo": ".opcodes",
    "OPCODES": ".opcodes",
    "Instruction": ".instruction",
    "Program": ".program",
    "assemble": ".assembler",
    "AssemblerError": ".assembler",
    "DynInst": ".dyninst",
    "SparseMemory": ".memory",
    "FunctionalExecutor": ".executor",
    "ArchState": ".executor",
    "FirstTouchFaults": ".executor",
})

__all__ = [
    "RegClass",
    "RegRef",
    "INT_REGS",
    "FP_REGS",
    "reg",
    "xreg",
    "freg",
    "Op",
    "OpInfo",
    "OPCODES",
    "Instruction",
    "Program",
    "assemble",
    "AssemblerError",
    "DynInst",
    "SparseMemory",
    "FunctionalExecutor",
    "ArchState",
    "FirstTouchFaults",
]

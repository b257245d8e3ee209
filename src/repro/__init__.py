"""repro — reproduction of "A Novel Register Renaming Technique for
Out-of-Order Processors" (Tabani, Arnau, Tubella, González — HPCA 2018).

Public API quickstart::

    from repro import MachineConfig, simulate, assemble

    program = assemble(open("kernel.s").read())
    baseline = simulate(MachineConfig(scheme="conventional", int_regs=64), program)
    proposed = simulate(MachineConfig(scheme="sharing", int_regs=64), program)
    print(proposed.ipc / baseline.ipc)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "DynInst": ".isa.dyninst",
    "FirstTouchFaults": ".isa.executor",
    "FunctionalExecutor": ".isa.executor",
    "Program": ".isa.program",
    "RegClass": ".isa.registers",
    "RegRef": ".isa.registers",
    "assemble": ".isa.assembler",
    "MachineConfig": ".pipeline.config",
    "Processor": ".pipeline.processor",
    "SimStats": ".pipeline.stats",
    "simulate": ".pipeline.processor",
    "ConventionalRenamer": ".core.conventional",
    "RegisterFileConfig": ".core.register_file",
    "SharingRenamer": ".core.sharing",
})

__version__ = "1.0.0"

__all__ = [
    "DynInst",
    "FirstTouchFaults",
    "FunctionalExecutor",
    "Program",
    "RegClass",
    "RegRef",
    "assemble",
    "MachineConfig",
    "Processor",
    "SimStats",
    "simulate",
    "ConventionalRenamer",
    "RegisterFileConfig",
    "SharingRenamer",
    "__version__",
]

"""Workload substrate.

Two kinds of workloads drive the simulator:

* **statistical traces** (:mod:`repro.workloads.generator`): synthetic
  dynamic instruction streams with a fixed pseudo-static skeleton, whose
  register-dependence structure (consumer counts, single-use chains,
  redefinition patterns), opcode mix, branch behaviour and memory
  locality are controlled per benchmark by
  :mod:`repro.workloads.profiles`.  These stand in for the paper's SPEC
  CPU2006 / Mediabench / cognitive runs (see DESIGN.md for why the
  substitution preserves the studied behaviour);
* **real kernels** (:mod:`repro.workloads.kernels`): GMM scoring, DNN
  layers, DCT, FIR and friends written in the toy ISA and executed
  functionally end-to-end.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "Kernel": ".kernels",
    "KERNELS": ".kernels",
    "EXTRA_KERNELS": ".kernels_extra",
    "ALL_KERNELS": ".kernels_extra",
    "MICROBENCHES": ".microbench",
    "annotate_hints": ".lookahead",
    "WorkloadProfile": ".profiles",
    "BENCHMARKS": ".profiles",
    "SPECINT": ".profiles",
    "SPECFP": ".profiles",
    "MEDIABENCH": ".profiles",
    "COGNITIVE": ".profiles",
    "suite": ".profiles",
    "SyntheticWorkload": ".generator",
})

__all__ = [
    "Kernel",
    "KERNELS",
    "EXTRA_KERNELS",
    "ALL_KERNELS",
    "MICROBENCHES",
    "annotate_hints",
    "WorkloadProfile",
    "BENCHMARKS",
    "SPECINT",
    "SPECFP",
    "MEDIABENCH",
    "COGNITIVE",
    "suite",
    "SyntheticWorkload",
]

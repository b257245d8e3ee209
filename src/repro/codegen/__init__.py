"""Code-generated per-config cycle kernels.

See :mod:`repro.codegen.generator` for what gets specialized and
:mod:`repro.codegen.cache` for the per-process kernel memo.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "KernelUnavailable": ".generator",
    "generate_kernel_source": ".generator",
    "kernel_fingerprint": ".fingerprint",
    "kernel_for": ".cache",
    "load_kernel": ".cache",
})

__all__ = [
    "KernelUnavailable",
    "generate_kernel_source",
    "kernel_fingerprint",
    "kernel_for",
    "load_kernel",
]

"""Code-generated per-config cycle kernels.

See :mod:`repro.codegen.generator` for what gets specialized and
:mod:`repro.codegen.cache` for the fingerprint-keyed on-disk cache.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "GENERATOR_VERSION": ".generator",
    "KernelCache": ".cache",
    "KernelUnavailable": ".generator",
    "default_kernel_dir": ".cache",
    "generate_kernel_source": ".generator",
    "kernel_fingerprint": ".fingerprint",
    "kernel_for": ".cache",
    "load_kernel": ".cache",
})

__all__ = [
    "GENERATOR_VERSION",
    "KernelCache",
    "KernelUnavailable",
    "default_kernel_dir",
    "generate_kernel_source",
    "kernel_fingerprint",
    "kernel_for",
    "load_kernel",
]

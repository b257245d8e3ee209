"""In-process memo of compiled cycle kernels.

Each kernel is generated and compiled at most once per process, keyed by
:func:`repro.codegen.fingerprint.kernel_fingerprint`, and kept in
``_KERNEL_MEMO``.  Nothing is written to disk: a sweep compiles its
kernels in the parent before the worker fleet forks, so every worker
inherits them.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.codegen.fingerprint import kernel_fingerprint
from repro.codegen.generator import KNOWN_SCHEMES, generate_kernel_source

#: fingerprint -> compiled ``run_kernel`` entry point (per process)
_KERNEL_MEMO: dict[str, Callable] = {}


def load_kernel(config) -> Callable:
    """The compiled ``run_kernel(proc, max_insts)`` for ``config``.

    Generates and compiles at most once per fingerprint per process.
    Raises :class:`repro.codegen.generator.KernelUnavailable` for schemes
    the generator does not flatten (early, hinted).
    """
    key = kernel_fingerprint(config)
    fn = _KERNEL_MEMO.get(key)
    if fn is not None:
        return fn
    namespace: dict = {"__name__": "repro_kernel_" + key}
    exec(compile(generate_kernel_source(config),
                 "<repro-kernel " + key + ">", "exec"), namespace)
    fn = namespace.get("run_kernel")
    if not callable(fn):
        raise RuntimeError("generated kernel defines no run_kernel()")
    _KERNEL_MEMO[key] = fn
    return fn


def kernel_for(config) -> Optional[Callable]:
    """The kernel for ``config``, or None when its scheme has none.

    Only the schemes in :data:`~repro.codegen.generator.KNOWN_SCHEMES`
    (conventional and sharing) get a kernel; early and hinted run the
    naive loop.  The choice depends on the config alone.  Generation and
    compile errors propagate: a broken generator must fail loudly, not
    silently slow simulation down.
    """
    if config.scheme not in KNOWN_SCHEMES:
        return None
    return load_kernel(config)

"""In-process memo of compiled cycle kernels.

Each distinct generated source is compiled at most once per process.
Configs that differ only in what the kernel reads from the processor at
run time (register-file sizes, banks) generate the same source, so they
share one compiled ``run_kernel``: the figure grid's 20 configs compile
2 kernels.  Two memos hold them:

* ``_KERNEL_MEMO`` maps :func:`repro.codegen.fingerprint.kernel_fingerprint`
  (one entry per config) to the kernel, so a repeat load of a config
  neither generates nor compiles;
* ``_SOURCE_MEMO`` maps a digest of the generated source to the kernel,
  so a new config whose source is already compiled only generates.

Identical source is identical code, and the kernel's own guard still
checks the config it runs against.  Nothing is written to disk: a sweep
compiles its kernels in the parent before the worker fleet forks, so
every worker inherits them.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional

from repro.codegen.fingerprint import kernel_fingerprint
from repro.codegen.generator import KNOWN_SCHEMES, generate_kernel_source

#: fingerprint -> compiled ``run_kernel`` entry point (per process)
_KERNEL_MEMO: dict[str, Callable] = {}

#: generated-source digest -> compiled ``run_kernel`` (per process)
_SOURCE_MEMO: dict[str, Callable] = {}


def load_kernel(config) -> Callable:
    """The compiled ``run_kernel(proc, max_insts)`` for ``config``.

    Generates at most once per fingerprint and compiles at most once per
    distinct source per process; the code object is named
    ``<repro-kernel DIGEST>`` after its source digest, so a profile names
    the kernel that ran.  Raises
    :class:`repro.codegen.generator.KernelUnavailable` for schemes the
    generator does not flatten (early, hinted).
    """
    key = kernel_fingerprint(config)
    fn = _KERNEL_MEMO.get(key)
    if fn is not None:
        return fn
    source = generate_kernel_source(config)
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:24]
    fn = _SOURCE_MEMO.get(digest)
    if fn is None:
        namespace: dict = {"__name__": "repro_kernel_" + digest}
        exec(compile(source, "<repro-kernel " + digest + ">", "exec"),
             namespace)
        fn = namespace.get("run_kernel")
        if not callable(fn):
            raise RuntimeError("generated kernel defines no run_kernel()")
        _SOURCE_MEMO[digest] = fn
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

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
from repro.codegen.generator import generate_kernel_source
from repro.mem import Cache, MemoryHierarchy, StridePrefetcher, TLB

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


def _shadows_method(obj) -> bool:
    """Does ``obj``'s instance ``__dict__`` shadow a method of its class?"""
    cls = type(obj)
    return any(callable(getattr(cls, name, None)) for name in vars(obj))


def _stock_hierarchy(hierarchy) -> bool:
    """Is ``hierarchy`` exactly the stock ``MemoryHierarchy`` whose TLB,
    L1-D and prefetcher internals the kernel's inlined data access reads?"""
    parts = [(hierarchy, MemoryHierarchy), (hierarchy.tlb, TLB),
             (hierarchy.l1d, Cache)]
    if hierarchy.prefetcher is not None:
        parts.append((hierarchy.prefetcher, StridePrefetcher))
    return all(type(obj) is cls and not _shadows_method(obj)
               for obj, cls in parts)


def kernel_for(config, renamer, hierarchy=None) -> Optional[Callable]:
    """Kernel entry point for a live processor, or None to use the naive loop.

    ``renamer`` is the live renamer instance (or, for capability probes,
    its class); ``hierarchy`` is the live memory hierarchy (None for
    capability probes).  Returns None when the renamer is not the exact
    class the scheme's kernel was generated against (``codegen_id`` must
    be declared in the class's own ``__dict__`` — subclasses such as test
    oracles fall back to the naive loop, whose virtual dispatch honours
    their overrides), when the scheme has no kernel at all (only
    conventional and sharing are generated; the early and hinted renamers
    declare no ``codegen_id``), when the renamer *instance* shadows a
    class method in its ``__dict__`` (monkeypatched hooks like
    ``renamer.write = spy`` would be bypassed by the kernel's inlined fast
    paths), or when the hierarchy is not exactly
    :class:`repro.mem.MemoryHierarchy` with exact
    ``TLB``/``Cache``/``StridePrefetcher`` members free of
    instance-shadowed methods (the kernel inlines ``data_access`` and
    reads their internals).  Generation and compile errors propagate: a
    broken generator must fail loudly, not silently slow simulation down.
    """
    renamer_cls = renamer if isinstance(renamer, type) else type(renamer)
    if renamer_cls.__dict__.get("codegen_id") != config.scheme:
        return None
    if not isinstance(renamer, type) and _shadows_method(renamer):
        return None
    if hierarchy is not None and not _stock_hierarchy(hierarchy):
        return None
    return load_kernel(config)

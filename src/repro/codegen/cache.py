"""On-disk + in-process cache of compiled cycle kernels.

Layout mirrors :mod:`repro.harness.cache` (content-addressed, sharded by
key prefix, atomic writes, corrupt entries read as misses and unlinked):

    <root>/<key[:2]>/kernel-<key>.py

Each cached module is framed by a header line and a footer sentinel that
both carry the fingerprint::

    # repro-kernel <key>
    ...generated module...
    # repro-kernel-end <key>

A file missing either frame (truncated write, disk corruption, a stale
file from a different fingerprint) or failing to ``compile()``/``exec``
is a miss: it is unlinked and the kernel regenerated from source.
Compiled entry points are memoised per process in ``_KERNEL_MEMO`` so a
sweep touching many points with the same fingerprint compiles once.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Optional

from repro.codegen.fingerprint import kernel_fingerprint
from repro.codegen.generator import generate_kernel_source
from repro.mem import Cache, MemoryHierarchy, StridePrefetcher, TLB

HEADER_PREFIX = "# repro-kernel "
FOOTER_PREFIX = "# repro-kernel-end "

#: fingerprint -> compiled ``run_kernel`` entry point (per process)
_KERNEL_MEMO: dict[str, Callable] = {}


def default_kernel_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_DIR")
    if env:
        return Path(env)
    from repro.harness.cache import default_cache_dir

    return default_cache_dir() / "kernels"


class KernelCache:
    """Fingerprint-keyed store of generated kernel modules."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_kernel_dir()
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"kernel-{key}.py"

    @staticmethod
    def frame(key: str, body: str) -> str:
        return (HEADER_PREFIX + key + "\n"
                + body.rstrip("\n") + "\n"
                + FOOTER_PREFIX + key + "\n")

    def load_source(self, key: str) -> Optional[str]:
        """Framed module text for ``key``, or None (corrupt files unlink)."""
        from repro.harness.cache import _unlink_quietly

        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        stripped = text.rstrip("\n")
        if (not text.startswith(HEADER_PREFIX + key + "\n")
                or not stripped.endswith("\n" + FOOTER_PREFIX + key)):
            _unlink_quietly(path)
            self.misses += 1
            return None
        self.hits += 1
        return text

    def store_source(self, key: str, body: str) -> str:
        """Write the framed module for ``key``; returns the framed text.

        Write failures (read-only cache dir) are swallowed — the caller
        still compiles from the in-memory text.
        """
        from repro.harness.cache import atomic_write_text

        text = self.frame(key, body)
        try:
            atomic_write_text(self.path_for(key), text)
        except OSError:
            pass
        return text

    def invalidate(self, key: str) -> None:
        from repro.harness.cache import _unlink_quietly

        _unlink_quietly(self.path_for(key))


def _compile_kernel(text: str, key: str) -> Callable:
    namespace: dict = {"__name__": "repro_kernel_" + key}
    code = compile(text, "<repro-kernel " + key + ">", "exec")
    exec(code, namespace)
    fn = namespace.get("run_kernel")
    if not callable(fn):
        raise RuntimeError("generated kernel defines no run_kernel()")
    return fn


def load_kernel(config, cache: Optional[KernelCache] = None) -> Callable:
    """The compiled ``run_kernel(proc, max_insts)`` for ``config``.

    Compiles at most once per fingerprint per process; a corrupt cached
    module is unlinked and regenerated.  Raises
    :class:`repro.codegen.generator.KernelUnavailable` for schemes the
    generator does not support.
    """
    key = kernel_fingerprint(config)
    fn = _KERNEL_MEMO.get(key)
    if fn is not None:
        return fn
    if cache is None:
        cache = KernelCache()
    text = cache.load_source(key)
    if text is not None:
        try:
            fn = _compile_kernel(text, key)
        except Exception:
            cache.invalidate(key)
            text = None
    if text is None:
        body = generate_kernel_source(config)
        text = cache.store_source(key, body)
        fn = _compile_kernel(text, key)
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
    their overrides), when the renamer *instance* shadows a class method
    in its ``__dict__`` (monkeypatched hooks like ``renamer.write = spy``
    would be bypassed by the kernel's inlined fast paths), or when the
    hierarchy is not exactly :class:`repro.mem.MemoryHierarchy` with exact
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

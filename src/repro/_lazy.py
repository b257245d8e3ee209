"""Lazy package exports (PEP 562).

A package root that re-exports names from its submodules would import
every submodule the moment anything under the package is imported.
Instead, each root maps its public names to their defining modules and
imports a module on the first access of one of its names::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "ResultCache": ".cache",
        "figure10": ".figures",
    })

``from package import name``, ``package.name`` and ``from package import
*`` (through ``__all__``) all work as with eager imports, and resolve to
the same objects.  A name that shares its defining submodule's name is
bound at once (see :func:`lazy_exports`).
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` for ``package``, whose public names are
    attributes of the modules ``exports`` maps them to (names relative to
    ``package`` when they start with a dot)."""

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module, package), name)
        # bind it, so later lookups never come back here
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    # A name defined by the submodule of the same name (``harness.headline``)
    # is bound now: importing that submodule, from anywhere, binds the
    # module object to the package attribute of that name and would
    # shadow the export.
    for name, module in exports.items():
        if module in (f".{name}", f"{package}.{name}"):
            __getattr__(name)
    return __getattr__, __dir__

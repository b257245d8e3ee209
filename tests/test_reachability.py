"""Lint: every module and def of ``src/repro`` is reached from an entry point.

Code that only ``tests/`` reaches is not part of the program; it belongs
in the tests or nowhere.  Two AST scans keep it out:

* **modules** — starting from the entry points (``repro.cli``,
  ``repro.__main__`` and every ``.py`` under ``bench/``, ``tools/``,
  ``examples/`` and ``benchmarks/``), follow every import, function-local
  and relative ones included.  Importing a module runs its packages'
  ``__init__``; ``from repro.pkg import NAME`` reaches the submodule
  ``NAME`` or, through the package's ``lazy_exports`` map, the module
  that defines ``NAME``.  A ``repro.x.y`` path in a string literal that
  is not a docstring (a monkeypatch target, say) counts as an import.
  Every module of ``src/repro`` must be reached, or be allowlisted with
  its reason; an allowlisted module's defs are exempt from the next
  check.
* **defs** — every function, class and method defined in ``src/repro``
  must be named somewhere in ``src/``, ``bench/``, ``tools/``,
  ``examples/`` or ``benchmarks/``: as an identifier, an attribute, an
  imported name, or a word of a string literal that is not a docstring
  (``bench/spans.py`` hooks methods by name, and the kernel generator
  names them in source templates).  A package root's re-exports (its
  imports, lazy-export keys and ``__all__``) are not uses: a name that
  only its package exports is still unused.  Dunder names are skipped.
"""

from __future__ import annotations

import ast
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_DIRS = ("bench", "tools", "examples", "benchmarks")
ENTRY_MODULES = ("repro.cli", "repro.__main__")

#: modules no entry point reaches that stay anyway, each with its reason
UNREACHED_ALLOWED = {
    # the per-instruction trace format that tests/test_trace_codec.py and
    # tests/test_columnar_ff.py hold the columnar codec against
    "repro.workloads.trace_io",
}

_MODULE_PATH = re.compile(r"\brepro(?:\.\w+)+")
_WORD = re.compile(r"[A-Za-z_]\w*")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}


def _entry_files() -> list[Path]:
    return [path for name in ENTRY_DIRS
            for path in sorted((ROOT / name).rglob("*.py"))]


@cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@cache
def _lazy_map(package: str) -> dict[str, str]:
    """``package``'s ``lazy_exports`` map: public name -> absolute module."""
    path = MODULES.get(package)
    if path is None or path.name != "__init__.py":
        return {}
    for node in ast.walk(_parse(path)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            exports = ast.literal_eval(node.args[1])
            return {name: package + module if module.startswith(".")
                    else module for name, module in exports.items()}
    return {}


def _with_packages(module: str) -> set[str]:
    """``module`` and the packages whose ``__init__`` importing it runs."""
    parts = module.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)} & MODULES.keys()


def _docstrings(tree: ast.Module) -> set[int]:
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _imports(path: Path, module: str | None) -> set[str]:
    """The ``repro`` modules the file at ``path`` (module ``module``, or
    ``None`` outside the package) imports, anywhere in its body."""
    package = None
    if module is not None:
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    tree = _parse(path)
    docstrings = _docstrings(tree)
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found |= _with_packages(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                base = ".".join(anchor[:len(anchor) - node.level + 1]
                                + ([base] if base else []))
            found |= _with_packages(base)
            lazy = _lazy_map(base)
            for alias in node.names:
                found |= _with_packages(f"{base}.{alias.name}")
                if alias.name in lazy:
                    found |= _with_packages(lazy[alias.name])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            for dotted in _MODULE_PATH.findall(node.value):
                found |= _with_packages(dotted)
    return found


def reached_modules() -> set[str]:
    reached: set[str] = set()
    todo = [name for entry in ENTRY_MODULES for name in _with_packages(entry)]
    for path in _entry_files():
        todo += _imports(path, None)
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo += _imports(MODULES[module], module) - reached
    return reached


def _names_used(tree: ast.Module, reexports: bool) -> set[str]:
    """Names ``tree`` uses; with ``reexports``, those of a package
    ``__init__``, whose imports and string literals only re-export names."""
    docstrings = _docstrings(tree)
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif reexports:
            continue
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            used.update(_WORD.findall(node.value))
    return used


def unnamed_defs() -> list[str]:
    used: set[str] = set()
    for path in [*MODULES.values(), *_entry_files()]:
        used |= _names_used(_parse(path), path.name == "__init__.py")
    return sorted(
        f"{path.relative_to(SRC)}:{node.lineno}: {node.name}"
        for module, path in MODULES.items() if module not in UNREACHED_ALLOWED
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used)


def test_every_module_is_reached_from_an_entry_point():
    reached = reached_modules()
    unreached = sorted(MODULES.keys() - reached - UNREACHED_ALLOWED)
    assert unreached == [], (
        "modules no entry point imports:\n" + "\n".join(unreached))
    assert not UNREACHED_ALLOWED & reached, "allowlisted but reached"


def test_every_def_is_named_outside_tests():
    unnamed = unnamed_defs()
    assert unnamed == [], (
        "defs nothing outside tests/ names:\n" + "\n".join(unnamed))

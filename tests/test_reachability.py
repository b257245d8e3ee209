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
  Every module of ``src/repro`` must be reached.
* **defs** — every function, class and method defined in ``src/repro``
  must be named somewhere in ``src/``, ``bench/``, ``tools/``,
  ``examples/`` or ``benchmarks/``: as an identifier, an attribute, an
  imported name, or a word of a string literal that is not a docstring
  (``bench/spans.py`` hooks methods by name, and the kernel generator
  names them in source templates).  A package root's re-exports (its
  imports, lazy-export keys and ``__all__``) are not uses: a name that
  only its package exports is still unused.  Dunder names are skipped.

Two more scans keep options that nothing sets out of the program:

* **options** — every defaulted parameter of a def in ``src/repro`` must
  be supplied, by position or by keyword, by some call in ``src/``,
  ``tests/`` or an entry directory whose callee name matches the def
  (for ``__init__``, the class).  A call with ``*args`` or ``**kwargs``
  supplies every parameter.  A def whose name is used as a value (a
  table of kernels, a base class, a callback) has indirect callers and
  is skipped; annotations and ``isinstance`` checks are not such uses.
  Dunder methods other than ``__init__`` are skipped.
* **fields** — the same rules for the defaulted fields of every frozen
  dataclass in ``src/repro``: a field must be supplied by some call of
  the class, by position or by keyword, or by a keyword of some
  ``replace(...)`` call.  A ``**`` spread into the class supplies every
  field, so this scan cannot see ``MachineConfig``:
  ``benchmarks/test_sensitivity_machine.py`` spreads ``**overrides``
  into it.
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
        for path in MODULES.values()
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used)


def _caller_files() -> list[Path]:
    return [*MODULES.values(), *sorted((ROOT / "tests").rglob("*.py")),
            *_entry_files()]


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _scan_calls() -> tuple[dict[str, tuple[int, set[str], bool]], set[str]]:
    """Per callee name: (most positional arguments, keywords, whether some
    call spreads ``*args``/``**kwargs``); and every name used as a value."""
    supplied: dict[str, tuple[int, set[str], bool]] = {}
    values: set[str] = set()
    for path in _caller_files():
        tree = _parse(path)
        not_values: set[int] = set()
        for node in ast.walk(tree):
            hidden = []
            if isinstance(node, ast.Call):
                not_values.add(id(node.func))
                name = _callee(node)
                if name in ("isinstance", "issubclass"):
                    hidden += node.args[1:]
                if name is not None:
                    most, keywords, spread = supplied.get(name, (0, set(), False))
                    supplied[name] = (
                        max(most, sum(not isinstance(arg, ast.Starred)
                                      for arg in node.args)),
                        keywords | {kw.arg for kw in node.keywords if kw.arg},
                        spread or any(isinstance(arg, ast.Starred)
                                      for arg in node.args)
                        or any(kw.arg is None for kw in node.keywords))
            elif isinstance(node, (ast.arg, ast.AnnAssign)):
                hidden.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hidden.append(node.returns)
            not_values |= {id(sub) for expr in hidden if expr is not None
                           for sub in ast.walk(expr)}
        for node in ast.walk(tree):
            if id(node) in not_values:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                values.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                values.add(node.attr)
    return supplied, values


def _defs_by_scope():
    """(path, def, class name or None, positional offset) for every def of
    ``src/repro`` directly in a module, class or function body."""
    for path in MODULES.values():
        for scope in ast.walk(_parse(path)):
            if not isinstance(scope, (ast.Module, ast.ClassDef,
                                      ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_class = isinstance(scope, ast.ClassDef)
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in node.decorator_list)
                    yield (path, node, scope.name if in_class else None,
                           int(in_class and not static))


def unset_options() -> list[str]:
    supplied, values = _scan_calls()
    unset = []
    for path, node, cls, offset in _defs_by_scope():
        name = node.name
        if name.startswith("__") and name.endswith("__") and name != "__init__":
            continue
        callee = cls if name == "__init__" else name
        if callee in values:
            continue
        most, keywords, spread = supplied.get(callee, (0, set(), False))
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        defaulted = [(arg.arg, index - offset) for index, arg in enumerate(
            positional) if index >= len(positional) - len(args.defaults)]
        defaulted += [(arg.arg, None) for arg, default in zip(
            args.kwonlyargs, args.kw_defaults) if default is not None]
        unset += [(str(path.relative_to(SRC)), node.lineno, callee, param)
                  for param, index in defaulted
                  if not (spread or param in keywords
                          or (index is not None and index < most))]
    return [f"{path}:{line}: {callee}({param}=)"
            for path, line, callee, param in sorted(unset)]


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and _callee(d) == "dataclass"
               and any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                       and kw.value.value is True for kw in d.keywords)
               for d in node.decorator_list)


def unset_fields() -> list[str]:
    supplied, values = _scan_calls()
    replaced = supplied.get("replace", (0, set(), False))[1]
    unset = []
    for path in MODULES.values():
        for node in ast.walk(_parse(path)):
            if not (isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node)
                    and node.name not in values):
                continue
            most, keywords, spread = supplied.get(node.name, (0, set(), False))
            fields = [stmt for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)]
            unset += [(str(path.relative_to(SRC)), stmt.lineno, node.name,
                       stmt.target.id)
                      for index, stmt in enumerate(fields)
                      if stmt.value is not None
                      and not (spread or index < most
                               or stmt.target.id in keywords | replaced)]
    return [f"{path}:{line}: {cls}.{name}"
            for path, line, cls, name in sorted(unset)]


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(MODULES.keys() - reached_modules())
    assert unreached == [], (
        "modules no entry point imports:\n" + "\n".join(unreached))


def test_every_def_is_named_outside_tests():
    unnamed = unnamed_defs()
    assert unnamed == [], (
        "defs nothing outside tests/ names:\n" + "\n".join(unnamed))


def test_every_option_is_set_somewhere():
    unset = unset_options()
    assert unset == [], (
        "defaulted parameters no call supplies (make them constants):\n"
        + "\n".join(unset))


def test_every_field_is_set_somewhere():
    unset = unset_fields()
    assert unset == [], (
        "defaulted dataclass fields no call or replace() supplies (make "
        "them constants):\n" + "\n".join(unset))

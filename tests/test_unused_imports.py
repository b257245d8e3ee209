"""Lint: no module of ``src/repro`` imports a name it never uses.

An AST scan of every module's top-level imports: a bound name must be
read somewhere in the module or be listed in its ``__all__``.  Package
``__init__.py`` files are skipped, since they import to re-export.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for name, line in imported.items()
            if name not in used and name not in exported]


def test_no_unused_top_level_imports():
    unused = [entry for path in sorted(SRC.rglob("*.py"))
              if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == [], "unused imports:\n" + "\n".join(unused)

"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import balsub

PACKAGE = Path(balsub.__file__).parent


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside an annotation, including ones quoted as strings."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = stmt.lineno
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_flagged():
    source = "from typing import Iterable, Iterator\nimport os\nx: 'Iterable[int]' = ()\n"
    assert unused_imports(source) == ["Iterator (line 1)", "os (line 2)"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so its names are never read there
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}

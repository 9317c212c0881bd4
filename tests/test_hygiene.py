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


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names the tree reads as plain names or inside annotations."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


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
    used = _loaded_names(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def private_definitions(source: str) -> dict[str, int]:
    """Module-level private functions, classes and constants, with the line
    of each definition (dunder names are not private)."""
    defined: dict[str, int] = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined[name] = stmt.lineno
    return defined


def names_read(source: str) -> set[str]:
    """Every name a module reads: loaded names, names inside annotations,
    attributes and names it imports from other modules."""
    tree = ast.parse(source)
    used = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
    return used


def unread_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level names of `sources` that no source reads."""
    read = set().union(*map(names_read, sources.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read
    ]


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


def test_unread_privates_are_flagged():
    sources = {
        "a.py": "_LIMIT = 3\n_SHARED: int = 1\ndef _lost():\n    return _LIMIT\n"
                "def __dir__():\n    return []\nclass _Spare:\n    pass\n",
        "b.py": "from .a import _SHARED\n_count = 0\n_count = 1\n",
    }
    assert unread_privates(sources) == [
        "a.py: _lost (line 3)",
        "a.py: _Spare (line 7)",
        "b.py: _count (line 3)",
    ]


def test_every_private_name_is_read_somewhere_in_the_package():
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert unread_privates(sources) == []

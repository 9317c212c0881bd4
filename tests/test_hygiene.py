"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from collections import Counter
from pathlib import Path

import balsub

PACKAGE = Path(balsub.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


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


def _referenced_names(tree: ast.AST) -> set[str]:
    """Attributes the tree reads and names it imports from other modules."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
    return used


def names_read(source: str) -> set[str]:
    """Every name a module reads: loaded names, names inside annotations,
    attributes and names it imports from other modules."""
    tree = ast.parse(source)
    return _loaded_names(tree) | _referenced_names(tree)


def unread_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level names of `sources` that no source reads."""
    read = set().union(*map(names_read, sources.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read
    ]


def exported_modules(init_source: str) -> dict[str, str]:
    """Each name a package's `__init__.py` imports from a sibling module,
    with the file name of that module."""
    return {
        alias.asname or alias.name: f"{stmt.module}.py"
        for stmt in ast.parse(init_source).body
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1
        for alias in stmt.names
    }


def unread_exports(exports: dict[str, str | None], sources: dict[str, str]) -> list[str]:
    """Exported names, each mapped to the source that defines it, that no
    source reads.  Anywhere, importing a name or reading it as an attribute
    reads it; a plain name reads it only in its defining source, since
    elsewhere the same name is some other binding."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    referenced = set().union(*map(_referenced_names, trees.values()))
    return [
        name
        for name, home in exports.items()
        if name not in referenced
        and not (home in trees and name in _loaded_names(trees[home]))
    ]


def test_unused_imports_are_flagged():
    source = "from typing import Iterable, Iterator\nimport os\nx: 'Iterable[int]' = ()\n"
    assert unused_imports(source) == ["Iterator (line 1)", "os (line 2)"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so its names are never read there
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    for folder in ("tests", "demos"):
        paths += sorted((ROOT / folder).glob("*.py"))
    found = {
        f"{path.parent.name}/{path.name}": unused
        for path in paths
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
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


def test_unread_exports_are_flagged():
    init = "from .a import kept, lost, own\nfrom .b import attr\n"
    sources = {
        "a.py": "def kept():\n    pass\ndef lost():\n    pass\ndef own():\n    pass\nown()\n",
        # b.py binds and reads a `lost` of its own, which is not a.py's
        "b.py": "attr = 1\nlost = 2\nprint(lost)\n",
        "tests/t.py": "import pkg\nfrom pkg import kept\npkg.attr\n",
    }
    modules = exported_modules(init)
    assert modules == {"kept": "a.py", "lost": "a.py", "own": "a.py", "attr": "b.py"}
    exports = {**modules, "stray": None}
    assert unread_exports(exports, sources) == ["lost", "stray"]


def test_every_export_is_listed_once_resolves_and_is_read():
    names = balsub.__all__
    assert [name for name, count in Counter(names).items() if count > 1] == []
    assert [name for name in names if not hasattr(balsub, name)] == []
    modules = exported_modules((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    sources = {path.name: path.read_text(encoding="utf-8") for path in paths}
    for folder in ("demos", "perfbench", "tests"):
        for path in sorted((ROOT / folder).glob("*.py")):
            sources[f"{folder}/{path.name}"] = path.read_text(encoding="utf-8")
    assert unread_exports({name: modules.get(name) for name in names}, sources) == []


def attribute_reads(source: str, attr: str) -> list[int]:
    """Lines where the source reads `attr` as an attribute, as in `x.attr`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == attr
    )


def test_attribute_reads_are_flagged():
    source = "g = Graph._of(adj)\nbuild = make()._of\n_of = 1\nprint(g.of, _of)\n"
    assert attribute_reads(source, "_of") == [1, 2]


def test_only_graph_py_builds_unchecked_graphs():
    # `Graph._of` skips the constructor's checks, so only the module whose
    # code builds well-formed adjacency may call it
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "graph.py"]
    for folder in ("demos", "perfbench", "tests"):
        paths += sorted((ROOT / folder).glob("*.py"))
    found = {
        f"{path.parent.name}/{path.name}": lines
        for path in paths
        if (lines := attribute_reads(path.read_text(encoding="utf-8"), "_of"))
    }
    assert found == {}


def self_calls(source: str) -> list[str]:
    """Module-level and nested functions that call themselves by name.
    Methods are left out: a call by a method's own name reads a module-level
    name or a builtin (`PathWitness.reversed` calls `reversed`), not the
    method."""
    found: list[str] = []

    def visit(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not in_class and any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == child.name
                    for sub in ast.walk(child)
                ):
                    found.append(child.name)
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef) or in_class)

    visit(ast.parse(source), False)
    return found


def test_self_calls_are_flagged():
    source = (
        "def walk(n):\n    return walk(n - 1) if n else 0\n"
        "def outer():\n    def inner(n):\n        return inner(n - 1)\n    return inner\n"
        "def flat(xs):\n    return sorted(xs)\n"
        "class Path:\n    def reversed(self):\n        return reversed(self.xs)\n"
        "    def again(self):\n        return self.again()\n"
        "    def helper(self):\n        def step(n):\n            return step(n)\n"
    )
    assert self_calls(source) == ["walk", "inner", "step"]


# The one recursive function allowed: `dense_tk2`'s `extend` goes one level
# deeper per branch vertex, and a TK_k^(2) needs k + C(k, 2) <= n vertices,
# so its depth is at most k <= sqrt(2n), far inside the recursion limit.
# Every other search keeps an explicit stack, since its depth grows with the
# input (one frame per branch pair or per path vertex).
_RECURSION_ALLOWED = {"drc.py": ["extend"]}


def test_no_function_in_the_package_calls_itself():
    found = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if (calls := self_calls(path.read_text(encoding="utf-8")))
    }
    assert found == _RECURSION_ALLOWED


def unread_locals(source: str) -> list[str]:
    """Names a function assigns and never reads, neither itself nor in a
    function nested in it, as `function: name (line n)` at the first
    assignment.  Names that start with `_` are meant to go unread, and names
    declared global or nonlocal belong to another scope."""
    found: list[str] = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        declared: set[str] = set()
        todo = list(func.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
            # a nested scope's assignments are its own
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                todo.extend(ast.iter_child_nodes(node))
        read = {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        found += [
            f"{func.name}: {name} (line {line})"
            for name, line in sorted(stored.items(), key=lambda item: item[1])
            if not name.startswith("_") and name not in read | declared
        ]
    return found


def test_unread_locals_are_flagged():
    source = (
        "def outer(xs):\n"
        "    cap = 3\n"
        "    spare = len(xs)\n"
        "    _skipped = 1\n"
        "    total = 0\n"
        "    def inner():\n"
        "        nonlocal total\n"
        "        total = cap\n"
        "        seen = len(xs)\n"
        "    half, rest = divmod(len(xs), 2)\n"
        "    for x in xs:\n"
        "        total += x\n"
        "    return total, half, inner\n"
    )
    assert unread_locals(source) == [
        "outer: spare (line 3)",
        "outer: rest (line 10)",
        "inner: seen (line 9)",
    ]


def test_no_function_assigns_a_name_it_never_reads():
    paths = sorted(PACKAGE.glob("*.py"))
    for folder in ("tests", "demos"):
        paths += sorted((ROOT / folder).glob("*.py"))
    found = {
        f"{path.parent.name}/{path.name}": names
        for path in paths
        if (names := unread_locals(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_every_module_parses_as_python_3_10():
    # CI runs the suite on 3.10 too; a newer syntax (`except*`, a generic
    # `class C[T]`) fails here on any interpreter, not only on 3.10.  A call
    # into a newer standard library is not caught here.
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))

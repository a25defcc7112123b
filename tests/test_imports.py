"""Every import in src/txpar is used. The check reads each module with the
stdlib's `ast`, so it needs no linter: a name counts as used when the module
loads it anywhere, including inside a string annotation."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "txpar"


def _string_annotation_names(tree: ast.AST) -> set[str]:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and type(node.value) is str:
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never uses. `from __future__` imports and
    names on a line marked `# noqa: F401` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _string_annotation_names(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1]) if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_the_check_finds_an_unused_import_and_skips_what_it_should():
    assert unused_imports("import inspect\nfrom fractions import Fraction\n") == ["line 1: inspect", "line 2: Fraction"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from __future__ import annotations\nimport re  # noqa: F401\n") == []
    assert unused_imports('from typing import Iterator\ndef f() -> "Iterator[int]": ...\n') == []
    assert unused_imports('from typing import Iterator\ndef f(x: "list[Iterator]"): ...\n') == []


def _private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Each module-level private name (`_x`, not a dunder) that a def, class or assignment binds, with the node
    that binds it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node
    return {name: node for name, node in defined.items() if name.startswith("_") and not name.startswith("__")}


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names of `sources` (module name -> source) that no module loads outside the
    definition that binds them: as a name, as an attribute such as `graph._accesses`, or in a string annotation."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads: dict[str, set[int]] = {}  # name -> the ids of the nodes that load it
    annotated = set()
    for tree in trees.values():
        annotated |= _string_annotation_names(tree)
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load) and isinstance(node, (ast.Name, ast.Attribute)):
                loads.setdefault(node.id if isinstance(node, ast.Name) else node.attr, set()).add(id(node))
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree).items():
            if name not in annotated and loads.get(name, set()) <= set(map(id, ast.walk(definition))):
                unused.append(f"{module}: {name}")
    return unused


def test_every_private_name_is_used():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_the_check_finds_a_dead_private_name_and_skips_what_it_should():
    sources = {
        "a.py": "def _dead():\n    return _dead()\n_x, _y = 1, 2\nclass _Kept: ...\n__all__ = []\n",
        "b.py": "from .a import _Kept\n_Kept\nimport a\na._y\ndef f(k: '_Z') -> None: ...\n_Z = int\n",
    }
    assert unused_private_names(sources) == ["a.py: _dead", "a.py: _x"]

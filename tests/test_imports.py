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

"""No import in ``src/repro`` binds a name its module never uses.

An ``ast`` check, so tier-1 runs it without a linter: a module's import
names are compared with every name the module reads (string annotations
included).  Package ``__init__.py`` files re-export, so they are exempt,
as are names in ``__all__``, ``__future__`` imports and lines marked
``# noqa`` (an import kept for its side effect).
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _names_read(tree: ast.AST) -> set:
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for c in ast.walk(annotation):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    parsed = ast.parse(c.value, mode="eval")
                    read.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return read


def _exported(tree: ast.AST) -> set:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return set()


def unused_imports(path: pathlib.Path) -> list[str]:
    """``"file:line: name"`` for each import of ``path`` binding an unread name."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    keep = _names_read(tree) | _exported(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in keep:
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_no_unused_imports_in_src():
    found = [
        f"{path.parent.relative_to(SRC)}/{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line in unused_imports(path)
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from typing import Optional, Sequence\n"
        "import numpy as np\n"
        "import os  # noqa: F401\n"
        "__all__ = ['np']\n"
        "def f(x: 'Optional[int]'):\n"
        "    return x\n"
    )
    assert unused_imports(module) == ["probe.py:1: Sequence"]

"""Every top-level function and class of the package is reached: a name or an
attribute somewhere in ``src/wemeval`` refers to it, or ``wemeval.__all__``
exports it. Code that only its own tests call fails here."""

from __future__ import annotations

import ast
from pathlib import Path

import wemeval


def test_every_top_level_definition_is_referenced_or_exported():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(wemeval.__file__).parent.glob("*.py"))}
    used = set(wemeval.__all__) | {"__getattr__"}  # a module hook the interpreter calls (PEP 562)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreached = [
        f"{path.stem}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert not unreached, "nothing in the package refers to:\n" + "\n".join(unreached)

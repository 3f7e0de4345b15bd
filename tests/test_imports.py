"""Every module under src/lexstable uses what it imports. An import kept
on purpose is marked ``# noqa: F401``; ``__init__.py`` re-exports the
names listed in its ``__all__``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lexstable"


def _unused_imports(source: str, name: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if name == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{name}:{node.lineno}: {bound}")
    return unused


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        unused += _unused_imports(path.read_text(encoding="utf-8"), path.name)
    assert unused == []


def test_the_check_finds_what_a_module_leaves_unused():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import inf, nan\n"
        "from sys import argv  # noqa: F401  kept on purpose\n"
        "def f():\n"
        "    import csv\n"
        "    return js.dumps(inf)\n"
    )
    assert _unused_imports(source, "m.py") == ["m.py:2: os", "m.py:4: nan", "m.py:7: csv"]
    assert _unused_imports("from .a import b\n__all__ = ['b']\n", "__init__.py") == []
    assert _unused_imports("from .a import b\n__all__ = ['b']\n", "m.py") == ["m.py:1: b"]

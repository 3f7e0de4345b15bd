"""Every module under src/lexstable uses what it imports. An unused
import is kept only for the benchmark's tracer: it is marked
``# noqa: F401`` and binds a name that ``perfbench/tracer.py`` wraps in
that module. ``__init__.py`` re-exports the names listed in its
``__all__``."""

import ast
from pathlib import Path

from test_tracer_sites import _load_tracer

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lexstable"


def _unused_imports(source: str, name: str, sites=frozenset()) -> list[str]:
    """``name:line: bound`` for each name ``source`` imports and never
    uses, unless its import is marked ``# noqa: F401`` and ``sites``
    holds ``(module, bound)``."""
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
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and not (marked and (Path(name).stem, bound) in sites):
                unused.append(f"{name}:{node.lineno}: {bound}")
    return unused


def test_every_import_is_used():
    sites = {(module, attr) for module, attr, _ in _load_tracer().FUNCTION_SITES}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        unused += _unused_imports(path.read_text(encoding="utf-8"), path.name, sites)
    assert unused == []


def test_the_check_finds_what_a_module_leaves_unused():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import inf, nan\n"
        "from sys import argv  # noqa: F401  a traced site\n"
        "from sys import path  # noqa: F401  not a traced site\n"
        "def f():\n"
        "    import csv\n"
        "    return js.dumps(inf)\n"
    )
    assert _unused_imports(source, "m.py", {("m", "argv")}) == [
        "m.py:2: os", "m.py:4: nan", "m.py:6: path", "m.py:8: csv"]
    assert _unused_imports("from .a import b\n__all__ = ['b']\n", "__init__.py") == []
    assert _unused_imports("from .a import b\n__all__ = ['b']\n", "m.py") == ["m.py:1: b"]

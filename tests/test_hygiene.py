"""Source hygiene that no installed linter checks: unused imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mippred"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references, in import order.

    A name listed in ``__all__`` counts as used; ``__future__`` imports
    are not names.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_flags_unused_and_honours_all_and_future():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import dumps as d, loads\n"
              "from math import pi\n"
              "__all__ = ['pi']\n"
              "print(sys.argv, d)\n")
    assert unused_imports(source) == ["os", "loads"]

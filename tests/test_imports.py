"""Every name a module imports is used: a stale import is a dependency that
no code has, and it hides what a file really reads."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SOURCES = [*sorted(p for p in (REPO / "src" / "softcap").glob("*.py") if p.name != "__init__.py"),
           *sorted((REPO / "tests").glob("*.py"))]


def unused_imports(source: str):
    """(line, name) of each name an import binds that no expression of
    ``source`` reads; a ``from __future__`` import binds none."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [(node.lineno, alias.asname or alias.name.split(".")[0])
             for node in ast.walk(tree)
             if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    return [(line, name) for line, name in bound if name not in read]


def test_unused_imports_finds_each_unread_name():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from json import dumps as to_json, loads\nsys.exit(to_json(os.sep))\n")
    assert unused_imports(source) == [(4, "loads")]
    assert unused_imports("import numpy as np\nfrom a import b\n") == [(1, "np"), (2, "b")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(REPO)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

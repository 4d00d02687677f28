"""Every name imported in src/hexflow/*.py is used: read in its module,
re-exported in its ``__all__``, or marked ``# noqa: F401`` on its line
(the sites the benchmark tracer in bench/tracing.py wraps)."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hexflow").glob("*.py"))


def unused_imports(source):
    """Names bound by an import in ``source`` that its module never reads,
    does not list in ``__all__`` and does not mark ``# noqa: F401``."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
                if not any("# noqa: F401" in line for line in marked):
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read | exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "import os\n"
        "from math import inf, pi\n"
        "from .conformal import (\n"
        "    edge_length,\n"
        "    face_sides,  # noqa: F401 - a tracer site\n"
        ")\n"
        "__all__ = ['inf']\n"
        "print(pi)\n"
    )
    assert unused_imports(source) == [(1, "os"), (4, "edge_length")]

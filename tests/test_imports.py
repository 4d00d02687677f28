"""Every name imported in src/hexflow/*.py is used: read in its module,
re-exported in its ``__all__``, or marked ``# noqa: F401`` on its line,
and a marked name is a site the benchmark tracer in bench/tracing.py
wraps or lies on the path to one.  The kernel's internals, which run
only behind its admissibility check, are imported by no module but
conformal.py."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "hexflow").glob("*.py"))

BENCH = str(ROOT / "bench")
if BENCH not in sys.path:
    sys.path.append(BENCH)

import tracing  # noqa: E402

SITES = {(path, attr) for path, attr, _ in tracing.SPAN_SITES + tracing.KERNEL_SITES}
KERNEL_INTERNALS = {"_edge_slack", "_checked", "_geometry", "_blocks", "_arc_terms", "_face_arcs"}


def _imports(source):
    """(name, line, marked) of every name an import in ``source`` binds,
    marked when its line carries ``# noqa: F401``."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
                name = (alias.asname or alias.name).split(".")[0]
                yield name, alias.lineno, any("# noqa: F401" in line for line in marked)


def marked_imports(source):
    """Names bound by an import in ``source`` that are marked ``# noqa: F401``."""
    return sorted(name for name, _, marked in _imports(source) if marked)


def tracer_site(module, name, sites=SITES):
    """Whether ``module.name`` is a site in ``sites`` or a step of a
    site's path."""
    return (module, name) in sites or any(path.startswith(f"{module}.{name}.") for path, _ in sites)


def internal_imports(source):
    """Kernel internals an import in ``source`` names, under any alias."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in KERNEL_INTERNALS
    )


def unused_imports(source):
    """Names bound by an import in ``source`` that its module never reads,
    does not list in ``__all__`` and does not mark ``# noqa: F401``."""
    tree = ast.parse(source)
    imported = {name: line for name, line, marked in _imports(source) if not marked}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read | exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_marked_imports_are_tracer_sites(path):
    module = "hexflow" if path.stem == "__init__" else f"hexflow.{path.stem}"
    assert [name for name in marked_imports(path.read_text()) if not tracer_site(module, name)] == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "conformal.py"], ids=lambda path: path.name)
def test_kernel_internals_stay_in_conformal(path):
    assert internal_imports(path.read_text()) == []


def test_internal_imports_are_found():
    source = (
        "from .conformal import _compiled, _geometry as kernel\n"
        "from .conformal import (\n"
        "    _checked,\n"
        "    boundary_lengths,\n"
        ")\n"
    )
    assert internal_imports(source) == ["_checked", "_geometry"]


def test_marked_imports_are_found():
    source = (
        "import os  # noqa: F401\n"
        "from .conformal import (\n"
        "    edge_length,\n"
        "    face_sides,  # noqa: F401 - a tracer site\n"
        ")\n"
        "from .hexagon import hexagon_arcs, arc_jacobian  # noqa: F401\n"
    )
    assert marked_imports(source) == ["arc_jacobian", "face_sides", "hexagon_arcs", "os"]


def test_a_step_of_a_site_path_is_a_tracer_site():
    sites = {("hexflow.flow", "face_sides"), ("hexflow.prescribe.scipy.linalg", "cho_factor")}
    assert tracer_site("hexflow.flow", "face_sides", sites)
    assert tracer_site("hexflow.prescribe", "scipy", sites)
    assert not tracer_site("hexflow.prescribe", "sci", sites)
    assert not tracer_site("hexflow.flow", "scipy", sites)
    assert not tracer_site("hexflow.prescribe", "cho_factor", sites)


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

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hexflow import Metric, parse_surface

PANTS_EDGE = 2.0 * math.acosh(2.0)


def pants_text(length=PANTS_EDGE):
    return (
        "surface pants\n"
        "boundaries 3\n"
        f"edge 1 2 3 {length!r}\n"
        f"edge 2 3 1 {length!r}\n"
        f"edge 3 1 2 {length!r}\n"
        "face 1 1 2 3 1 2 3\n"
        "face 2 1 2 3 1 2 3\n"
    )


TETRA_TEXT = (
    "surface fourholes\n"
    "boundaries 4\n"
    "edge 1 1 2 0.9\n"
    "edge 2 1 3 1.2\n"
    "edge 3 1 4 1.5\n"
    "edge 4 2 3 1.8\n"
    "edge 5 2 4 2.1\n"
    "edge 6 3 4 2.4\n"
    "face 1 6 5 4 2 3 4\n"
    "face 2 6 3 2 1 3 4\n"
    "face 3 5 3 1 1 2 4\n"
    "face 4 4 2 1 1 2 3\n"
)

# Disjoint union of two pairs of pants; components 1..3 and 4..6 share no face.
TWIN_TEXT = (
    "surface twinpants\n"
    "boundaries 6\n"
    f"edge 1 2 3 {PANTS_EDGE!r}\n"
    f"edge 2 3 1 {PANTS_EDGE!r}\n"
    f"edge 3 1 2 {PANTS_EDGE!r}\n"
    "edge 4 5 6 1.0\n"
    "edge 5 6 4 1.4\n"
    "edge 6 4 5 1.9\n"
    "face 1 1 2 3 1 2 3\n"
    "face 2 1 2 3 1 2 3\n"
    "face 3 4 5 6 4 5 6\n"
    "face 4 4 5 6 4 5 6\n"
)

SECOND_PANTS_TEXT = (
    "surface pants2\n"
    "boundaries 3\n"
    "edge 4 2 3 1.0\n"
    "edge 5 3 1 1.4\n"
    "edge 6 1 2 1.9\n"
    "face 3 4 5 6 1 2 3\n"
    "face 4 4 5 6 1 2 3\n"
)

# One-holed torus: every edge joins component 1 to itself.
TORUS_TEXT = (
    "surface oneholedtorus\n"
    "boundaries 1\n"
    "edge 1 1 1 1.2\n"
    "edge 2 1 1 1.6\n"
    "edge 3 1 1 2.0\n"
    "face 1 1 2 3 1 1 1\n"
    "face 2 1 2 3 1 1 1\n"
)

# Components 1 and 2 carry one corner each, and face 1 uses edge 2 in two
# of its slots.
LOPSIDED_TEXT = (
    "surface lopsided\n"
    "boundaries 3\n"
    "edge 1 3 3 1.0\n"
    "edge 2 1 3 1.2\n"
    "edge 3 2 3 1.4\n"
    "face 1 1 2 2 1 3 3\n"
    "face 2 1 3 3 2 3 3\n"
)


@pytest.fixture(scope="session")
def pants():
    return parse_surface(pants_text())


@pytest.fixture(scope="session")
def tetra():
    return parse_surface(TETRA_TEXT)


@pytest.fixture(scope="session")
def twin_pants():
    return parse_surface(TWIN_TEXT)


@pytest.fixture(scope="session")
def second_pants():
    return parse_surface(SECOND_PANTS_TEXT)


@pytest.fixture(scope="session")
def torus():
    return parse_surface(TORUS_TEXT)


@pytest.fixture(scope="session")
def lopsided():
    return parse_surface(LOPSIDED_TEXT)


@pytest.fixture()
def pants_file(tmp_path):
    path = tmp_path / "pants.surf"
    path.write_text(pants_text())
    return path


def fd_jacobian(f, x, step=1e-5):
    """Central finite differences of a vector map; columns follow x."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    jac = np.zeros((f0.size, x.size))
    for j in range(x.size):
        bump = np.zeros_like(x)
        bump[j] = step
        jac[:, j] = (
            np.atleast_1d(np.asarray(f(x + bump), dtype=float))
            - np.atleast_1d(np.asarray(f(x - bump), dtype=float))
        ) / (2.0 * step)
    return jac


def random_in_domain(tri, l0, rng, low=-0.2, high=1.0, margin=0.05):
    """Rejection-sample a factor with a positive admissibility cushion."""
    from hexflow import in_domain

    while True:
        w = rng.uniform(low, high, tri.n_boundaries)
        if in_domain(tri, l0, w).margin > margin:
            return w


def generated(faces, seed):
    """(tri, l0) of the benchmark's seeded random surface with ``faces`` faces."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    from surfaces import random_surface

    surface = random_surface(faces, seed)
    return surface.tri, surface.l0


def block_rows(tri):
    """Factor rows per block of a batched kernel call on tri."""
    from hexflow import conformal

    return max(1, conformal._BLOCK_EDGES // len(tri.edges))


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The calls of the array kernel body made while the test runs: one
    entry per call, holding the number of factor rows it evaluated."""
    from hexflow import conformal

    calls = []
    kernel = conformal._geometry

    def counted(compiled, w, *args, **kwargs):
        calls.append(w.size // w.shape[-1])
        return kernel(compiled, w, *args, **kwargs)

    monkeypatch.setattr(conformal, "_geometry", counted)
    return calls

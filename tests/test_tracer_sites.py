"""The benchmark tracer's sites must exist: a simplification that drops a
name the tracer wraps would otherwise only show as a missing layer."""

import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
if BENCH not in sys.path:
    sys.path.append(BENCH)

import tracing  # noqa: E402


@pytest.mark.parametrize(
    "path, attr",
    [(path, attr) for path, attr, _ in tracing.SPAN_SITES + tracing.KERNEL_SITES],
)
def test_site_resolves(path, attr):
    owner = tracing._resolve(path)
    assert owner is not None, path
    assert callable(getattr(owner, attr, None)), f"{path}.{attr}"

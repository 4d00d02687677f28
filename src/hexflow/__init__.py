"""Conformal boundary-length flows on ideally triangulated hyperbolic
surfaces with geodesic boundary.

The package models a compact surface cut into right-angled hexagons,
rescales its edge metric by per-boundary conformal factors, evaluates the
boundary-length map and its Jacobian, integrates the gradient flow of the
associated concave energy, and inverts the map for prescribed boundary
lengths by damped Newton iteration.
"""

from .conformal import (
    DomainCheck,
    GeometryRows,
    SurfaceGeometry,
    boundary_jacobian,
    boundary_lengths,
    edge_length,
    face_sides,
    geometry_rows,
    in_domain,
    surface_geometry,
)
from .energy import face_energy, segment_energy, total_energy
from .errors import (
    ConvergenceError,
    DomainError,
    HexflowError,
    ParseError,
    QuadratureError,
)
from .flow import (
    CuspReport,
    FlowOptions,
    FlowTrace,
    TraceTable,
    cusp_report,
    flow_limit,
    integrate_flow,
    trace_csv,
)
from .hexagon import (
    arc_jacobian,
    coefficient_matrix,
    hexagon_arcs,
    hexagon_sides,
)
from .prescribe import SolveOptions, SolveResult, solve_prescribed
from .surface import (
    Edge,
    Face,
    IdealTriangulation,
    Metric,
    ValidationReport,
    Violation,
    euler_characteristic,
    parse_surface,
    serialize_surface,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CuspReport",
    "DomainCheck",
    "DomainError",
    "Edge",
    "Face",
    "FlowOptions",
    "FlowTrace",
    "GeometryRows",
    "HexflowError",
    "IdealTriangulation",
    "Metric",
    "ParseError",
    "QuadratureError",
    "SolveOptions",
    "SolveResult",
    "SurfaceGeometry",
    "TraceTable",
    "ValidationReport",
    "Violation",
    "arc_jacobian",
    "boundary_jacobian",
    "boundary_lengths",
    "coefficient_matrix",
    "cusp_report",
    "edge_length",
    "euler_characteristic",
    "face_energy",
    "face_sides",
    "flow_limit",
    "geometry_rows",
    "hexagon_arcs",
    "hexagon_sides",
    "in_domain",
    "integrate_flow",
    "parse_surface",
    "segment_energy",
    "serialize_surface",
    "solve_prescribed",
    "surface_geometry",
    "total_energy",
    "trace_csv",
    "validate",
]

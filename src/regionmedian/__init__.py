"""Geometric medians of planar regions.

The median of a region is found as the root of a boundary-integral
residual field driven by closed-form edge integrals, then certified
against an independent area-quadrature oracle. A Weiszfeld solver for
finite point sets and a CLI round out the package.
"""
from .errors import (
    EmptySampleError,
    InvalidPolygonError,
    InvalidTriangleError,
    NonConvergenceError,
    RegionFileError,
    RegionMedianError,
    SingularRegionError,
)
from .geometry import Point2, Polygon, Vector2, as_polygon, rotate90
from .kernels import KernelKind, RadialKernel
from .oracle import MCEstimate, OracleConfig, OracleValue, oracle_minimize, oracle_sigma, oracle_sigma_mc
from .residuals import (
    CertificateResult,
    ResidualReport,
    general_boundary_residual,
    mean_distance_certificate,
    polygon_residual,
)
from .solver import SolveConfig, SolveResult, degenerate_limit_study, solve_median, solve_medianoid
from .weiszfeld import PointSet, region_median_by_sampling, weiszfeld

__version__ = "0.1.0"

__all__ = [
    "Point2",
    "Vector2",
    "Polygon",
    "rotate90",
    "as_polygon",
    "KernelKind",
    "RadialKernel",
    "ResidualReport",
    "CertificateResult",
    "polygon_residual",
    "general_boundary_residual",
    "mean_distance_certificate",
    "SolveConfig",
    "SolveResult",
    "solve_median",
    "solve_medianoid",
    "degenerate_limit_study",
    "OracleConfig",
    "OracleValue",
    "MCEstimate",
    "oracle_sigma",
    "oracle_minimize",
    "oracle_sigma_mc",
    "PointSet",
    "weiszfeld",
    "region_median_by_sampling",
    "RegionMedianError",
    "InvalidPolygonError",
    "InvalidTriangleError",
    "SingularRegionError",
    "NonConvergenceError",
    "EmptySampleError",
    "RegionFileError",
    "__version__",
]

"""Boundary-integral residual fields whose roots are medians.

One rule for every kernel k: with m_i the mean of k(P - x) along edge i
of the counterclockwise loop and e_i its edge vector, the gradient of
the area objective (integral of k(P - x) dA) is rotate90(T, +1), where
T = sum_i m_i e_i. The two routes differ only in how the means are
evaluated: ``polygon_residual`` uses the closed form (Euclidean kernel)
and reports T, the tangential form; ``general_boundary_residual`` uses
adaptive quadrature (any kernel) and reports rotate90(T, -1), the normal
form, which is the integral of k(P - x) times the outward unit normal.

For a triangle T vanishes exactly when the three means are equal; that
is the certificate of ``mean_distance_certificate``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .errors import InvalidTriangleError
from .geometry import Point2, Polygon, Vector2, as_polygon, rotate90
from .kernels import RadialKernel, closed_values_batch, segment_sigma_quadrature

__all__ = [
    "ResidualReport",
    "polygon_residual",
    "general_boundary_residual",
    "mean_distance_certificate",
    "CertificateResult",
]


@dataclass(frozen=True)
class ResidualReport:
    """A residual vector at a query point, with derived quantities.

    ``gradient`` is the objective gradient at the query point; it has the
    residual's norm and roots. ``normalized_norm``
    is the residual norm divided by the squared region diameter, which
    makes solver tolerances scale-free for the Euclidean kernel.
    """

    residual: Vector2
    gradient: Vector2
    edge_means: Tuple[float, ...]
    norm: float
    normalized_norm: float

    @classmethod
    def assemble(
        cls, residual: Vector2, gradient: Vector2, edge_means: np.ndarray, diam: float
    ) -> "ResidualReport":
        norm = residual.norm
        return cls(
            residual=residual,
            gradient=gradient,
            edge_means=tuple(edge_means.tolist()),
            norm=norm,
            normalized_norm=norm / (diam * diam),
        )


def _closed_means(poly: Polygon, x: Point2) -> np.ndarray:
    """Mean distance from x along each edge, from the closed form."""
    c = poly.coords
    return closed_values_batch(c, np.roll(c, -1, axis=0), (x.x, x.y)) / poly.edge_lengths


def _report(poly: Polygon, means: np.ndarray, normal_form: bool) -> ResidualReport:
    # T = sum of m_i e_i, accumulated left to right in storage order so
    # results are bit-reproducible; the gradient is rotate90(T, +1)
    t = np.cumsum(means[:, None] * poly.edge_vectors, axis=0)[-1]
    tangential = Vector2(t[0], t[1])
    residual = rotate90(tangential, -1) if normal_form else tangential
    return ResidualReport.assemble(residual, rotate90(tangential, 1), means, poly.diameter)


def polygon_residual(poly: Polygon, x: Point2) -> ResidualReport:
    """Tangential residual T: sum of (mean edge distance) times edge vector.

    Uses the closed-form segment integrals of the Euclidean kernel.
    """
    return _report(poly, _closed_means(poly, x), normal_form=False)


def general_boundary_residual(
    boundary,
    x: Point2,
    kernel: RadialKernel,
    tol: float = 1e-10,
) -> ResidualReport:
    """Normal-form residual rotate90(T, -1), for any kernel.

    This is the integral of kernel(P - x) times the outward unit normal.
    ``boundary`` may be a Polygon or any closed vertex loop (a sampled
    polyline approximating a curved boundary); loops are normalized to
    counterclockwise order. Each edge mean is evaluated by adaptive
    quadrature to the given tolerance.
    """
    poly = as_polygon(boundary)
    c = poly.coords
    cn = np.roll(c, -1, axis=0)
    means = np.array([
        segment_sigma_quadrature(Point2(a[0], a[1]), Point2(b[0], b[1]), x, kernel, tol=tol).mean
        for a, b in zip(c, cn)
    ])
    return _report(poly, means, normal_form=True)


class CertificateResult(NamedTuple):
    means: Tuple[float, float, float]
    spread: float


def mean_distance_certificate(tri: Polygon, x: Point2) -> CertificateResult:
    """Equal-mean-distance certificate for a triangle.

    Returns the three mean distances from x to the edges and their
    spread (max - min)/max. Zero spread certifies x as the geometric
    median of the triangular region, independently of any solver.
    """
    if len(tri) != 3:
        raise InvalidTriangleError("certificate is defined for triangles only")
    means = _closed_means(tri, x)
    hi = float(means.max())
    lo = float(means.min())
    spread = (hi - lo) / hi if hi > 0.0 else 0.0
    return CertificateResult(means=(float(means[0]), float(means[1]), float(means[2])), spread=spread)

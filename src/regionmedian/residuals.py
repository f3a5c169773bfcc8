"""Boundary-integral residual fields whose roots are medians.

One rule for every kernel k: with m_i the mean of k(P - x) along edge i
of the counterclockwise loop and e_i its edge vector, the residual is
T = sum_i m_i e_i, and the gradient of the area objective (integral of
k(P - x) dA) is rotate90(T, +1). ``general_boundary_residual`` takes the
edge integrals from the kernel (``RadialKernel.values_batch``): in closed
form for integer powers up to ``kernels._MAX_CLOSED_POWER``, the
Euclidean kernel p = 1 among them, else by one batched Gauss-Kronrod 10/21
pass over the panels of every edge (``kernels.quadrature_values_batch``).
A quadrature edge passes when its QUADPACK error estimate err satisfies
err <= tol * (1 + |value|) for its integral value, with the one
tolerance tol = 1e-13 of every solve and CLI command; only the panels of
failing edges are bisected, and an edge that does not pass raises
NonConvergenceError. Every function here takes its edge integrals from
one helper, in the region's solve frame (``Polygon._local_frame``).
Every report carries the Jacobian of the gradient, from the gradients
of the edge integrals: closed-form, or integrated in the same
Gauss-Kronrod pass as the values. T is summed correctly rounded
(``math.fsum``), so it does not depend on where the loop starts.

For a triangle T vanishes exactly when the three means are equal, for
any kernel; their spread is the certificate, ``ResidualReport.certificate``
on every report and ``mean_distance_certificate`` on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import InvalidTriangleError
from .geometry import Point2, Polygon, Vector2, as_polygon, rotate90
from .kernels import RadialKernel

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

    ``residual`` is T = sum_i m_i e_i on every route. ``gradient`` is the
    objective gradient rotate90(T, +1), with the residual's norm and
    roots. ``normalized_norm`` is the residual norm divided by the
    squared region diameter, which makes solver tolerances scale-free for
    the Euclidean kernel. ``jacobian`` is the derivative of the gradient
    in x, R sum_i e_i (x) grad m_i with R the rotation by +90 degrees,
    as rows ((dg_x/dx, dg_x/dy), (dg_y/dx, dg_y/dy)), on every route.
    ``certificate`` is the spread of a triangle's three edge means.
    """

    residual: Vector2
    gradient: Vector2
    edge_means: Tuple[float, ...]
    norm: float
    normalized_norm: float
    jacobian: Tuple[Tuple[float, float], Tuple[float, float]]

    @property
    def certificate(self) -> Optional[float]:
        """``_spread`` of a triangle's three edge means; None for more edges."""
        return _spread(self.edge_means) if len(self.edge_means) == 3 else None


def _report(poly: Polygon, values: np.ndarray, grads: np.ndarray) -> ResidualReport:
    """The report of the edge integrals ``values`` and their (m, 2) gradients in x."""
    lengths = poly.edge_lengths
    means = values / lengths
    # T = sum of m_i e_i, correctly rounded so it does not depend on the
    # edge order; the gradient is rotate90(T, +1)
    terms = means[:, None] * poly.edge_vectors
    residual = Vector2(math.fsum(terms[:, 0].tolist()), math.fsum(terms[:, 1].tolist()))
    norm = residual.norm
    diam = poly.diameter
    # s[a, b] = sum_i e_i[a] dm_i/dx_b; rotating its rows by +90 degrees
    # gives the Jacobian of the gradient rotate90(T, +1)
    (s00, s01), (s10, s11) = np.einsum("ia,ib->ab", poly.edge_vectors, grads / lengths[:, None]).tolist()
    return ResidualReport(
        residual=residual,
        gradient=rotate90(residual),
        edge_means=tuple(means.tolist()),
        norm=norm,
        normalized_norm=norm / (diam * diam),
        jacobian=((-s10, -s11), (s00, s01)),
    )


def _spread(means) -> float:
    """(max - min) / largest |m| of the edge means; zero certifies a triangle's median.

    The spread is 0.0 only for finite, equal means; means that are not
    all finite give inf, which certifies nothing.
    """
    m = np.asarray(means, dtype=float)
    if not np.all(np.isfinite(m)):
        return math.inf
    hi = float(np.max(m))
    lo = float(np.min(m))
    return (hi - lo) / max(hi, -lo) if hi != lo else 0.0


def _frame_values(boundary, x: Point2, kernel: RadialKernel) -> Tuple[Polygon, np.ndarray, np.ndarray]:
    """(frame polygon, edge integrals, their (m, 2) gradients) at the absolute x."""
    local, ox, oy = as_polygon(boundary)._local_frame()
    return (local, *kernel.values_batch(local.coords, local.edge_vectors, (x.x - ox, x.y - oy)))


def general_boundary_residual(boundary, x: Point2, kernel: RadialKernel) -> ResidualReport:
    """Residual T: sum of (mean kernel value) times edge vector, any kernel.

    ``boundary`` may be a Polygon or any closed vertex loop (a sampled
    polyline approximating a curved boundary); loops are normalized to
    counterclockwise order. x is absolute and evaluated in the region's
    solve frame. All edge means and the gradients behind the report's
    ``jacobian`` come from one call of ``RadialKernel.values_batch``.
    """
    return _report(*_frame_values(boundary, x, kernel))


def polygon_residual(poly: Polygon, x: Point2) -> ResidualReport:
    """``general_boundary_residual`` with ``RadialKernel.euclidean()``, kept
    by name because it is public and the benchmark's traced run wraps it."""
    return general_boundary_residual(poly, x, RadialKernel.euclidean())


class CertificateResult(NamedTuple):
    """The result of ``mean_distance_certificate``, public and kept with it."""
    means: Tuple[float, float, float]
    spread: float


def mean_distance_certificate(tri: Polygon, x: Point2) -> CertificateResult:
    """Equal-mean-distance certificate for a triangle.

    Returns the three mean distances from x to the edges and their
    spread (max - min)/max. Zero spread certifies x as the geometric
    median of the triangular region, independently of any solver. Kept
    by name: it is public, and the benchmark's traced run wraps it.
    """
    if len(tri) != 3:
        raise InvalidTriangleError("certificate is defined for triangles only")
    local, values, _ = _frame_values(tri, x, RadialKernel.euclidean())
    means = values / local.edge_lengths
    return CertificateResult(means=tuple(means.tolist()), spread=_spread(means))

"""Boundary-integral residual fields whose roots are medians.

One rule for every kernel k: with m_i the mean of k(P - x) along edge i
of the counterclockwise loop and e_i its edge vector, the residual is
T = sum_i m_i e_i, and the gradient of the area objective (integral of
k(P - x) dA) is rotate90(T, +1). ``general_boundary_residual`` takes the
edge integrals from the kernel (``RadialKernel.values_batch``): in closed
form for powers 1 <= p <= ``kernels._MAX_CLOSED_POWER``, integer or not,
the Euclidean kernel p = 1 among them, else by one batched Gauss-Kronrod
10/21 pass over the panels of every edge
(``kernels.quadrature_values_batch``).
A quadrature edge passes when its QUADPACK error estimate err satisfies
err <= tol * (1 + |value|) for its integral value, with tol =
``kernels._QUAD_TOL`` = 1e-13, the one tolerance; only the panels of
failing edges are bisected, and an edge that does not pass raises
NonConvergenceError. Edge integrals are taken in the region's solve
frame (``Polygon._local_frame``). ``_frame_residual`` turns them into
plain floats: the edge means, T summed correctly rounded
(``math.fsum``), so it does not depend on where the loop starts, and
the rows of the Jacobian of the gradient, from the gradients of the
edge integrals: closed-form, or integrated in the same Gauss-Kronrod
pass as the values. Loops of up to ``kernels._FLOAT_EDGES`` edges
reduce on Python floats, longer ones on arrays, with the same bits; the
crossover is read from ``kernels`` at each call, so the closed form and
this reduction switch routes at one value. On floats both read the
lists the polygon keeps (``Polygon._float_loop``), and the closed form
takes its rows. The Newton loop of
``solver.solve_medianoid`` calls it once per trial point;
``general_boundary_residual`` wraps the same floats in a
``ResidualReport`` for callers outside the loop.

For a triangle T vanishes exactly when the three means are equal, for
any kernel; their spread is the certificate, ``ResidualReport.certificate``
on every report and ``mean_distance_certificate`` on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, truediv
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import InvalidTriangleError
from .geometry import Polygon, Vector2, _FloatLoop, _point_xy, _require_finite, as_polygon, rotate90
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


def _frame_residual(local: Polygon, x, kernel: RadialKernel) -> tuple:
    """(edge means, T_x, T_y, Jacobian rows) at the point x of the solve
    frame polygon ``local``, from one call of ``RadialKernel.values_batch``.

    T = sum of m_i e_i is correctly rounded, so it does not depend on the
    edge order; a T that is not finite raises the ValueError of
    ``Vector2``. The Jacobian rows are those of ``ResidualReport.jacobian``.
    The means are a list of floats. Loops of up to
    ``kernels._FLOAT_EDGES`` edges hand the kernel the rows of their
    ``Polygon._float_loop`` and reduce on its lists (``_float_reduction``),
    longer ones take the arrays, with the same bits.
    """
    loop = local._float_loop()
    if loop:
        values, grads = kernel.values_batch(loop.starts, loop.edges, x)
        out = _float_reduction(loop, values, grads)
        if out is not None:
            return out
    else:
        values, grads = kernel.values_batch(local.coords, local.edge_vectors, x)
    lengths = local.edge_lengths
    means = values / lengths
    terms = means[:, None] * local.edge_vectors
    tx, ty = map(math.fsum, terms.T.tolist())
    _require_finite(tx, ty)
    # s[a, b] = sum_i e_i[a] dm_i/dx_b; rotating its rows by +90 degrees
    # gives the Jacobian of the gradient rotate90(T, +1)
    (s00, s01), (s10, s11) = np.einsum("ia,ib->ab", local.edge_vectors, grads / lengths[:, None]).tolist()
    return means.tolist(), tx, ty, ((-s10, -s11), (s00, s01))


def _float_reduction(loop: _FloatLoop, values: np.ndarray, grads: np.ndarray) -> Optional[tuple]:
    """``_frame_residual``'s reduction of the edge integrals on Python
    floats, with the edge lists of ``loop``; None where a mean, T or a
    Jacobian entry is not finite, or ``math.fsum`` raises, and the array
    reduction then raises or returns as it always does. The Jacobian
    sums run in edge order from 0.0, as ``np.einsum`` accumulates them."""
    exs, eys, lengths = loop.exs, loop.eys, loop.lengths
    try:
        means = list(map(truediv, values.tolist(), lengths))
        tx, ty = math.fsum(map(mul, means, exs)), math.fsum(map(mul, means, eys))
    except (ZeroDivisionError, OverflowError, ValueError):
        return None
    s00 = s01 = s10 = s11 = 0.0
    for ex, ey, (gx, gy), length in zip(exs, eys, grads.tolist(), lengths):
        gx, gy = gx / length, gy / length
        s00 += ex * gx
        s01 += ex * gy
        s10 += ey * gx
        s11 += ey * gy
    # an infinity or a NaN anywhere makes the sum one too
    if not math.isfinite(sum(means) + tx + ty + s00 + s01 + s10 + s11):
        return None
    return means, tx, ty, ((-s10, -s11), (s00, s01))


def _spread(means) -> float:
    """(max - min) / largest |m| of the edge means, a sequence of floats;
    zero certifies a triangle's median.

    The spread is 0.0 only for finite, equal means; means that are not
    all finite give inf, which certifies nothing.
    """
    if not all(map(math.isfinite, means)):
        return math.inf
    hi, lo = max(means), min(means)
    return (hi - lo) / max(hi, -lo) if hi != lo else 0.0


def general_boundary_residual(boundary, x, kernel: RadialKernel) -> ResidualReport:
    """Residual T: sum of (mean kernel value) times edge vector, any kernel.

    ``boundary`` may be a Polygon or any closed vertex loop (a sampled
    polyline approximating a curved boundary); loops are normalized to
    counterclockwise order. x, a ``Point2`` or a pair of numbers, is
    absolute and evaluated in the region's solve frame. All edge means
    and the gradients behind the report's ``jacobian`` come from
    ``_frame_residual``, as in every solve.
    """
    local, ox, oy = as_polygon(boundary)._local_frame()
    px, py = _point_xy(x)
    means, tx, ty, jacobian = _frame_residual(local, (px - ox, py - oy), kernel)
    residual = Vector2(tx, ty)
    diam = local.diameter
    return ResidualReport(residual=residual, gradient=rotate90(residual), edge_means=tuple(means),
                          norm=residual.norm, normalized_norm=residual.norm / (diam * diam), jacobian=jacobian)


def polygon_residual(poly: Polygon, x) -> ResidualReport:
    """``general_boundary_residual`` with ``RadialKernel.euclidean()``, kept
    by name because it is public and the benchmark's traced run wraps it."""
    return general_boundary_residual(poly, x, RadialKernel.euclidean())


class CertificateResult(NamedTuple):
    """The result of ``mean_distance_certificate``, public and kept with it."""
    means: Tuple[float, float, float]
    spread: float


def mean_distance_certificate(tri: Polygon, x) -> CertificateResult:
    """Equal-mean-distance certificate for a triangle.

    Returns the three mean distances from x, a ``Point2`` or a pair of
    numbers, to the edges and their spread (max - min)/max. Zero spread
    certifies x as the geometric median of the triangular region,
    independently of any solver. Kept by name: it is public, and the
    benchmark's traced run wraps it.
    """
    if len(tri) != 3:
        raise InvalidTriangleError("certificate is defined for triangles only")
    local, ox, oy = as_polygon(tri)._local_frame()
    px, py = _point_xy(x)
    values, _ = RadialKernel.euclidean().values_batch(local.coords, local.edge_vectors, (px - ox, py - oy))
    means = (values / local.edge_lengths).tolist()
    return CertificateResult(means=tuple(means), spread=_spread(means))

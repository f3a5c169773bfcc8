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
frame (``Polygon._local_frame``). ``_frame_residual``, the one evaluator
of every residual, turns them into the edge means, T summed correctly
rounded, so it does not depend on where the loop starts, and the rows of
the Jacobian of the gradient, from the gradients of the edge integrals:
closed-form, or integrated in the same Gauss-Kronrod pass as the values.
It owns the overflow rule: under the solves' numpy error state, edge
integrals that overflow the float range raise SingularRegionError. The
closed form's lists on a polygon's float lists (``_floats``, a
``geometry._FloatLoop``) are reduced on Python floats, T by ``math.fsum``;
arrays, and a float reduction that gives up, take the array reduction,
with the same bits, and T by the error-free extraction of
``_column_fsums``. The Newton loop of ``solver.solve_medianoid`` calls it
once per trial point; ``general_boundary_residual`` wraps the same floats
in a ``ResidualReport``, which ``polygon_residual`` and
``mean_distance_certificate`` read.

For a triangle T vanishes exactly when the three means are equal, for
any kernel; their spread is the certificate, ``ResidualReport.certificate``
on every report and ``mean_distance_certificate`` for the Euclidean one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, truediv
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import InvalidTriangleError, SingularRegionError
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


# fewest terms whose column sums take the extraction of _column_fsums,
# whose numpy calls cost about 17 us however few the terms, against about
# 0.06 us a term for math.fsum: on T of sampled curves (2 shared x86-64
# cores, Python 3.11, numpy 2.4) the two break even near 384 terms, and
# at 2048 the extraction takes 37 us against 122 us
_EXTRACT_TERMS = 384


def _frame_residual(local: Polygon, x, kernel: RadialKernel) -> tuple:
    """(edge means, T_x, T_y, Jacobian rows) at the point x of the solve
    frame polygon ``local``, from one call of ``RadialKernel.values_batch``
    with its arrays and its ``_FloatLoop`` or None.

    A FloatingPointError of the edge integrals or their reduction, raised
    under the solves' error state, becomes a chained SingularRegionError.
    T = sum of m_i e_i is correctly rounded, so it does not depend on the
    edge order; a T that is not finite raises the ValueError of
    ``Vector2``. The Jacobian rows are those of ``ResidualReport.jacobian``.
    The closed form's lists take ``_float_reduction``, with ``math.fsum``;
    arrays (quadrature, any other polygon, a point handed back), and a
    float reduction that gives up, the array reduction, with the same
    bits, and ``_column_fsums`` for T. The means are a list of floats on
    the float route and the float64 array on the array route, which stays
    an array until ``_mean_tuple`` turns the final point's into floats.
    """
    loop = local._floats
    try:
        values, grads = kernel.values_batch(local.coords, local.edge_vectors, x, loop)
        if type(values) is list:
            out = _float_reduction(loop, values, grads)
            if out is not None:
                return out
            values, grads = np.array(values), np.array(grads).reshape(-1, 2)
        lengths = local.edge_lengths
        means = values / lengths
        # the terms m_i e_i as the columns of a (2, n) product's transpose,
        # each column contiguous, as _column_fsums reads them
        tx, ty = _column_fsums(np.multiply(local.edge_vectors.T, means, order="C").T)
        _require_finite(tx, ty)
        # s[a, b] = sum_i e_i[a] dm_i/dx_b; rotating its rows by +90 degrees
        # gives the Jacobian of the gradient rotate90(T, +1)
        (s00, s01), (s10, s11) = np.einsum("ia,ib->ab", local.edge_vectors, grads / lengths[:, None]).tolist()
    except FloatingPointError as exc:
        raise SingularRegionError(f"the kernel integrals overflow the float range: {exc}") from exc
    return means, tx, ty, ((-s10, -s11), (s00, s01))


def _column_fsums(terms: np.ndarray) -> list:
    """``math.fsum`` of each column of the (n, k) float64 array ``terms``,
    n >= 1, bit for bit, by error-free extraction (Rump, Ogita and Oishi,
    "Accurate floating-point summation part I", SIAM J. Sci. Comput.
    31(1), 2008).

    With M = ceil(log2(n + 2)) and sigma = 2^(e + M) for max|p| < 2^e,
    q = (sigma + p) - sigma is exact and lies on the grid of sigma 2^-53;
    every partial sum of the q's stays below sigma, so q.sum() is exact in
    any order, and p - q is exact too. Each level keeps that sum and goes
    on with p - q, at least 52 - M bits lower, until nothing is left. The
    few level sums add up exactly to the column's sum, so ``math.fsum``
    over them rounds it correctly, and a correctly rounded sum is unique:
    it is the float ``math.fsum`` gives over the terms. No level sum is
    -0.0, since x - x is +0.0. A column of zeros, whose sign
    ``math.fsum`` decides, a non-finite term, a sigma past the float range
    or a grid that reaches the subnormals hands the column to
    ``math.fsum`` itself, with its infinities, NaN, ValueError and
    OverflowError. So do columns of fewer than ``_EXTRACT_TERMS`` terms.
    """
    if len(terms) < _EXTRACT_TERMS:
        return [math.fsum(column) for column in terms.T.tolist()]
    m = (len(terms) + 1).bit_length()
    done = [None] * terms.shape[1]
    levels = [[] for _ in done]
    # a contiguous row per column: numpy's passes along n terms are
    # several times faster than across k columns
    rest = np.array(terms.T, order="C")
    while True:
        sigma = []
        for j, top in enumerate(np.abs(rest).max(axis=1).tolist()):
            e = math.frexp(top)[1] + m
            if done[j] is not None or (top == 0.0 and levels[j]):
                sigma.append(0.0)
            elif top == 0.0 or not math.isfinite(top) or not -1022 + 53 <= e <= 1023:
                # sigma = 2^e would be infinite, or its grid 2^(e - 53) subnormal
                done[j] = math.fsum(terms[:, j].tolist())
                rest[j] = 0.0
                sigma.append(0.0)
            else:
                sigma.append(math.ldexp(1.0, e))
        if not any(sigma):
            return [math.fsum(sums) if total is None else total for total, sums in zip(done, levels)]
        s = np.array(sigma)[:, None]
        q = s + rest
        q -= s
        for sums, t in zip(levels, q.sum(axis=1).tolist()):
            sums.append(t)
        rest -= q


def _mean_tuple(means) -> tuple:
    """The edge means of ``_frame_residual`` as a tuple of floats: the
    array route's array by one ``tolist``."""
    return tuple(means.tolist() if isinstance(means, np.ndarray) else means)


def _float_reduction(loop: _FloatLoop, values: list, grads: list) -> Optional[tuple]:
    """``_frame_residual``'s reduction of the edge integrals on Python
    floats, with the edge lists of ``loop``: the list of values and the
    flat list of gradients, as the float closed form returns them; None
    where a mean, T or a Jacobian entry is not finite, or ``math.fsum``
    raises, and the array reduction then raises or returns as it always
    does. The Jacobian sums run in edge order from 0.0, as ``np.einsum``
    accumulates them."""
    exs, eys, lengths = loop.exs, loop.eys, loop.lengths
    try:
        means = list(map(truediv, values, lengths))
        tx, ty = math.fsum(map(mul, means, exs)), math.fsum(map(mul, means, eys))
    except (ZeroDivisionError, OverflowError, ValueError):
        return None
    s00 = s01 = s10 = s11 = 0.0
    for ex, ey, gx, gy, length in zip(exs, eys, grads[::2], grads[1::2], lengths):
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


@np.errstate(over="raise", invalid="raise")
def general_boundary_residual(boundary, x, kernel: RadialKernel) -> ResidualReport:
    """Residual T: sum of (mean kernel value) times edge vector, any kernel.

    ``boundary`` may be a Polygon or any closed vertex loop (a sampled
    polyline approximating a curved boundary); loops are normalized to
    counterclockwise order. x, a ``Point2`` or a pair of finite numbers,
    is absolute and evaluated in the region's solve frame. All edge means
    and the gradients behind the report's ``jacobian`` come from
    ``_frame_residual``, as in every solve and under the solves' numpy
    error state: integrals that overflow raise SingularRegionError.
    """
    local, ox, oy = as_polygon(boundary)._local_frame()
    px, py = _point_xy(x)
    means, tx, ty, jacobian = _frame_residual(local, (px - ox, py - oy), kernel)
    residual = Vector2(tx, ty)
    diam = local.diameter
    return ResidualReport(residual=residual, gradient=rotate90(residual), edge_means=_mean_tuple(means),
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
    finite numbers, to the edges and their spread (max - min)/max: the
    Euclidean ``general_boundary_residual``'s edge means and certificate,
    or NaN means and spread inf where its integrals overflow. Zero spread
    certifies x as the geometric median of the triangular region,
    independently of any solver. Kept by name: it is public, and the
    benchmark's traced run wraps it.
    """
    if len(tri) != 3:
        raise InvalidTriangleError("certificate is defined for triangles only")
    try:
        means = general_boundary_residual(tri, x, RadialKernel.euclidean()).edge_means
    except SingularRegionError:
        means = (math.nan,) * 3
    return CertificateResult(means=means, spread=_spread(means))

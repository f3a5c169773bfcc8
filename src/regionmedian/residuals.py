"""Boundary-integral residual fields whose roots are medians.

Two assemblies of the same first-order condition:

* ``polygon_residual`` sums mean-edge-distance weighted edge vectors
  (the tangential form, Euclidean kernel, closed-form integrals).
* ``general_boundary_residual`` integrates kernel(P - x) times the
  outward unit normal over the loop (the normal form, any kernel).

For the Euclidean kernel on the same polygon the two are 90 degree
rotations of one another: normal form = rotate90(tangential form, -1).
Either way the report's ``gradient`` is the true gradient of the
area-integrated objective, for counterclockwise loops: rotate90 of the
tangential residual by +1, and minus the normal-form residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, NamedTuple

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
        cls, residual: Vector2, gradient: Vector2, edge_means: Sequence[float], diam: float
    ) -> "ResidualReport":
        norm = residual.norm
        return cls(
            residual=residual,
            gradient=gradient,
            edge_means=tuple(float(m) for m in edge_means),
            norm=norm,
            normalized_norm=norm / (diam * diam),
        )


def polygon_residual(poly: Polygon, x: Point2) -> ResidualReport:
    """Tangential residual: sum of (mean edge distance) times edge vector.

    Uses the closed-form segment integrals; edges are accumulated left to
    right in storage order so results are bit-reproducible.
    """
    c = poly.coords
    cn = np.roll(c, -1, axis=0)
    values = closed_values_batch(c, cn, (x.x, x.y))
    e = cn - c
    lengths = np.hypot(e[:, 0], e[:, 1])
    means = values / lengths
    rx = 0.0
    ry = 0.0
    for i in range(len(c)):
        rx += means[i] * e[i, 0]
        ry += means[i] * e[i, 1]
    r = Vector2(rx, ry)
    return ResidualReport.assemble(r, rotate90(r, 1), means, poly.diameter)


def general_boundary_residual(
    boundary,
    x: Point2,
    kernel: RadialKernel,
    tol: float = 1e-10,
) -> ResidualReport:
    """Normal-form residual: integral of kernel(P - x) times outward normal.

    ``boundary`` may be a Polygon or any closed vertex loop (a sampled
    polyline approximating a curved boundary); loops are normalized to
    counterclockwise order, for which the outward unit normal of an edge
    is rotate90(edge direction, -1). Each edge integral is evaluated by
    adaptive quadrature to the given tolerance.
    """
    poly = as_polygon(boundary)
    rx = 0.0
    ry = 0.0
    means = []
    for a, b in poly.edges():
        seg = segment_sigma_quadrature(
            Point2(a[0], a[1]), Point2(b[0], b[1]), x, kernel, tol=tol
        )
        means.append(seg.mean)
        if seg.segment_length > 0.0:
            # outward normal times edge length = rotate90(edge vector, -1)
            nx = (b[1] - a[1]) / seg.segment_length
            ny = -(b[0] - a[0]) / seg.segment_length
            rx += seg.value * nx
            ry += seg.value * ny
    return ResidualReport.assemble(Vector2(rx, ry), Vector2(-rx, -ry), means, poly.diameter)


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
    c = tri.coords
    cn = np.roll(c, -1, axis=0)
    values = closed_values_batch(c, cn, (x.x, x.y))
    lengths = np.hypot(cn[:, 0] - c[:, 0], cn[:, 1] - c[:, 1])
    means = values / lengths
    hi = float(means.max())
    lo = float(means.min())
    spread = (hi - lo) / hi if hi > 0.0 else 0.0
    return CertificateResult(means=(float(means[0]), float(means[1]), float(means[2])), spread=spread)

"""Independent output checks for the benchmark.

Uses numpy only and imports nothing from ``regionmedian``, so a fault in
the program cannot hide in its own check. Every check works in a frame
centred on the reported point: ``P - x`` is exact for nearby doubles
(Sterbenz), so regions far from the origin, such as map-grid parcels,
are checked as precisely as regions at the origin.

* ``gradient_ratio``: the area objective F(x) = integral of f(|P - x|)
  over the region has gradient -(loop integral of f(|P - x|) n ds) by
  the divergence theorem. The ratio |loop integral f n ds| / (loop
  integral f ds) is scale-free and vanishes exactly at the median
  (f(r) = r) or medianoid (f(r) = r^p).
* ``triangle_mean_spread``: the paper's characteristic property of the
  triangle median: its mean distances to the three sides are equal.
* ``oracle_distance_ok``: the brute-force minimizer must lie within
  1e-6 of the diameter of the median.

Edge integrals use composite Gauss-Legendre rules. Each edge is split at
the foot of the perpendicular from x, where |P - x| bends fastest, and
each piece gets panels no longer than the distance from x to the edge's
line divided by ``panels_per_offset``, so every panel sees an analytic
integrand.
"""
from __future__ import annotations

import numpy as np

# Verdict thresholds. Today's medians give ratios and spreads of 1e-12
# or less; moving a median by 1e-6 of the diameter gives 1e-7 or more.
GRADIENT_RATIO_LIMIT = 1e-9
TRIANGLE_SPREAD_LIMIT = 1e-9
ORACLE_DISTANCE_LIMIT = 1e-6

DEFAULT_ORDER = 16
DEFAULT_PANELS_PER_OFFSET = 2.0
_MAX_PANELS = 4096


def _pieces(q: np.ndarray):
    """Split each edge of the centred loop q at the foot of the perpendicular.

    Returns piece start points, piece vectors, the edge each piece came
    from, and the distance from the origin to that edge's line.
    """
    a = q
    e = np.roll(q, -1, axis=0) - q
    length2 = np.sum(e * e, axis=1)
    t_foot = -np.sum(a * e, axis=1) / length2
    offset = np.abs(a[:, 0] * e[:, 1] - a[:, 1] * e[:, 0]) / np.sqrt(length2)
    split = (t_foot > 0.0) & (t_foot < 1.0)
    t_lo = np.concatenate([np.zeros(len(q)), np.where(split, t_foot, 1.0)])
    t_hi = np.concatenate([np.where(split, t_foot, 1.0), np.ones(len(q))])
    edge = np.concatenate([np.arange(len(q)), np.arange(len(q))])
    keep = t_hi > t_lo
    t_lo, t_hi, edge = t_lo[keep], t_hi[keep], edge[keep]
    start = a[edge] + t_lo[:, None] * e[edge]
    vec = (t_hi - t_lo)[:, None] * e[edge]
    return start, vec, edge, offset[edge]


def edge_integrals(coords, x, p: float = 1.0, order: int = DEFAULT_ORDER,
                   panels_per_offset: float = DEFAULT_PANELS_PER_OFFSET):
    """Per-edge integrals of |P - x|^p ds and of |P - x|^p n ds.

    ``n`` is the unit normal rotate(edge, -90 degrees), outward for a
    counterclockwise loop; the sign does not enter the verdicts. Returns
    (values (m,), normal moments (m, 2), edge lengths (m,)).
    """
    q = np.asarray(coords, dtype=float) - np.asarray(x, dtype=float).reshape(1, 2)
    m = len(q)
    start, vec, edge, offset = _pieces(q)
    piece_len = np.hypot(vec[:, 0], vec[:, 1])
    floor = np.maximum(offset, 1e-6 * piece_len)
    panels = np.clip(np.ceil(panels_per_offset * piece_len / floor), 1, _MAX_PANELS).astype(int)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    # one row per panel: which piece it belongs to and its parameter span
    owner = np.repeat(np.arange(len(panels)), panels)
    first = np.cumsum(panels) - panels
    k = np.arange(len(owner)) - first[owner]
    h = 1.0 / panels[owner]
    s = (k[:, None] + nodes[None, :]) * h[:, None]
    px = start[owner, 0][:, None] + s * vec[owner, 0][:, None]
    py = start[owner, 1][:, None] + s * vec[owner, 1][:, None]
    r = np.hypot(px, py)
    f = r if p == 1.0 else r ** p
    panel_sum = (f @ weights) * h * piece_len[owner]
    values = np.bincount(edge[owner], weights=panel_sum, minlength=m)
    e = np.roll(q, -1, axis=0) - q
    lengths = np.hypot(e[:, 0], e[:, 1])
    normal = np.stack([e[:, 1], -e[:, 0]], axis=1) / lengths[:, None]
    return values, values[:, None] * normal, lengths


def gradient_ratio(coords, x, p: float = 1.0, **quad) -> float:
    """|loop integral f n ds| / loop integral f ds at x, for f(r) = r^p."""
    values, moments, _ = edge_integrals(coords, x, p, **quad)
    total = moments.sum(axis=0)
    return float(np.hypot(total[0], total[1]) / values.sum())


def triangle_mean_spread(coords, x, **quad) -> float:
    """(max - min) / max of the mean distances from x to the three sides."""
    values, _, lengths = edge_integrals(coords, x, 1.0, **quad)
    means = values / lengths
    return float((means.max() - means.min()) / means.max())


def diameter(coords) -> float:
    q = np.asarray(coords, dtype=float)
    q = q - q.mean(axis=0)
    d = q[:, None, :] - q[None, :, :]
    return float(np.sqrt(np.max(np.sum(d * d, axis=2))))


def oracle_distance_ok(coords, distance_to_median: float) -> bool:
    return distance_to_median <= ORACLE_DISTANCE_LIMIT * diameter(coords)


def check_median(coords, x, p: float = 1.0, **quad) -> list:
    """Every check that applies; returns the failed ones as messages."""
    problems = []
    if not np.all(np.isfinite(np.asarray(x, dtype=float))):
        return [f"non-finite point {x}"]
    ratio = gradient_ratio(coords, x, p, **quad)
    if not ratio <= GRADIENT_RATIO_LIMIT:
        problems.append(f"gradient ratio {ratio:.3e} > {GRADIENT_RATIO_LIMIT:.0e}")
    if len(coords) == 3 and p == 1.0:
        spread = triangle_mean_spread(coords, x, **quad)
        if not spread <= TRIANGLE_SPREAD_LIMIT:
            problems.append(f"side mean spread {spread:.3e} > {TRIANGLE_SPREAD_LIMIT:.0e}")
    return problems

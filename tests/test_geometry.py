import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from regionmedian import (
    InvalidPolygonError,
    Point2,
    Polygon,
    Vector2,
    rotate90,
)
from regionmedian import geometry
from regionmedian.weiszfeld import PointSet
from helpers import (
    all_pairs_diameter,
    quadratic_segments_intersect_any,
    random_convex_polygon,
    random_star_polygon,
)

DATA = Path(__file__).parent / "data"


def test_rotate90_quarter_turns():
    assert rotate90(Vector2(1, 0)) == Vector2(0, 1)
    assert rotate90(Vector2(0, 1)) == Vector2(-1, 0)


def test_rotate90_four_times_identity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        v = Vector2(*rng.uniform(-3, 3, 2))
        w = v
        for _ in range(4):
            w = rotate90(w)
        assert w == v


def test_point_vector_reject_nonfinite():
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Vector2(0.0, float("inf"))


def test_signed_area_unit_square():
    sq = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert sq.area == 1.0
    assert not sq.was_reversed


def test_signed_area_reversed_input_normalized():
    sq = Polygon([(0, 1), (1, 1), (1, 0), (0, 0)])
    assert sq.area == 1.0
    assert sq.was_reversed


def test_signed_area_right_triangle():
    assert Polygon([(0, 0), (4, 0), (0, 3)]).area == 6.0


def test_signed_area_cyclic_and_translation_invariant():
    rng = np.random.default_rng(42)
    for _ in range(30):
        poly = random_convex_polygon(rng)
        coords = poly.coords
        k = int(rng.integers(0, len(coords)))
        rolled = Polygon(np.roll(coords, k, axis=0))
        assert math.isclose(rolled.area, poly.area, rel_tol=1e-12)
        shifted = Polygon(coords + rng.uniform(-100, 100, 2))
        assert math.isclose(shifted.area, poly.area, rel_tol=1e-9)


@pytest.mark.parametrize("offset", [1e6, 1e12, 1e15])
def test_far_triangle_keeps_its_area_and_centroid(offset):
    # area and centroid are taken relative to vertex 0, where the
    # differences of nearby coordinates are exact
    tri = Polygon([(offset, offset), (offset + 3, offset), (offset + 3, offset + 4)])
    assert tri.area == 6.0
    assert tri.centroid == Point2(offset + 2.0, offset + 4.0 / 3.0)


def test_diameter_examples():
    assert math.isclose(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]).diameter, math.sqrt(2))
    assert Polygon([(0, 0), (4, 0), (0, 3)]).diameter == 5.0
    hexagon = [
        (math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)
    ]
    assert math.isclose(Polygon(hexagon).diameter, 2.0, rel_tol=1e-12)


def test_bowtie_rejected():
    with pytest.raises(InvalidPolygonError, match="polygon is self-intersecting"):
        Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])


def test_asymmetric_bowtie_rejected():
    with pytest.raises(InvalidPolygonError, match="self-intersecting"):
        Polygon([(0, 0), (2, 1), (2, 0), (0, 1)])


@pytest.mark.parametrize("scale", [1e-100, 1e-160, 1.0, 1e100, 1e150])
def test_bowtie_is_rejected_at_every_scale(scale):
    # crossings are decided from orientation signs: the products of two
    # orientations underflow to zero below about 1e-80 and overflow
    # above about 1e77
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidPolygonError, match="self-intersecting"):
            Polygon(np.array([(0, 0), (2, 1), (2, 0), (0, 2)]) * scale)


def test_zero_area_rejected():
    with pytest.raises(InvalidPolygonError, match="zero area"):
        Polygon([(0, 0), (1, 0), (2, 0)])


def test_too_few_vertices_rejected():
    with pytest.raises(InvalidPolygonError):
        Polygon([(0, 0), (1, 0)])


def test_repeated_vertex_rejected():
    with pytest.raises(InvalidPolygonError):
        Polygon([(0, 0), (1, 0), (1, 0), (0, 1)])


def test_vertex_touching_edge_rejected():
    # the loop pinches: vertex 3 sits on the interior of edge 0-1
    with pytest.raises(InvalidPolygonError):
        Polygon([(0, 0), (4, 0), (4, 2), (2, 0), (0, 2)])


def test_explicitly_closed_loop_accepted():
    p = Polygon([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    assert len(p) == 4


def test_centroid_of_square():
    c = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)]).centroid
    assert c == Point2(1.0, 1.0)


def test_centroid_matches_vertex_mean_for_triangles():
    rng = np.random.default_rng(5)
    for _ in range(25):
        coords = rng.uniform(-3, 3, (3, 2))
        area = 0.5 * abs(
            (coords[1, 0] - coords[0, 0]) * (coords[2, 1] - coords[0, 1])
            - (coords[1, 1] - coords[0, 1]) * (coords[2, 0] - coords[0, 0])
        )
        if area < 0.1:
            continue
        c = Polygon(coords).centroid
        assert np.allclose([c.x, c.y], coords.mean(axis=0), atol=1e-12)


def test_convexity_flag():
    assert Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]).is_convex
    assert not Polygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)]).is_convex


def test_contains_basics():
    sq = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert sq.contains((0.5, 0.5))
    assert not sq.contains((1.5, 0.5))
    # boundary points: excluded strictly, included otherwise
    assert not sq.contains((0.0, 0.5), strict=True)
    assert sq.contains((0.0, 0.5), strict=False)


def test_contains_many_agrees_with_area_fraction():
    rng = np.random.default_rng(77)
    poly = random_convex_polygon(rng)
    lo, hi = poly.coords.min(axis=0), poly.coords.max(axis=0)
    pts = rng.uniform(lo, hi, (20000, 2))
    frac = poly.contains_many(pts).mean()
    box = np.prod(hi - lo)
    assert abs(frac - poly.area / box) < 0.02


def test_point_arithmetic():
    assert math.isclose(Vector2(3, 4).norm, 5.0)


def test_vertex_input_forms():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    expected = np.array(square, dtype=float)
    for vertices in (
        square,
        [list(v) for v in square],
        np.array(square),
        [Point2(*v) for v in square],
        (v for v in square),
        square + [square[0]],
        np.array(square + [square[0]], dtype=float),
        [Point2(0, 0), (1, 0), np.array([1.0, 1.0]), [0, 1]],
    ):
        poly = Polygon(vertices)
        assert np.array_equal(poly.coords, expected)
        assert not poly.coords.flags.writeable


def test_array_input_is_copied():
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    poly = Polygon(coords)
    coords[0] = (5.0, 5.0)
    assert poly.coords[0].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("vertices", [
    [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
    np.zeros((4, 3)),
    [(0, 0), (1, 0, 0), (0, 1)],
    [0, 1, 2],
    [(0,), (1,), (2,)],
    [],
    np.zeros((3, 2, 1)),
])
def test_malformed_vertices_raise_invalid_polygon_error(vertices):
    with pytest.raises(InvalidPolygonError, match=r"vertices must be a sequence of \(x, y\) pairs"):
        Polygon(vertices)


# ---------------------------------------------------------------- contact test
#
# ``geometry._segments_intersect_any`` tests only candidate pairs from a grid
# over the edge boxes; ``quadratic_segments_intersect_any`` tests every pair
# with the same predicate. Their verdicts must agree on every loop.

def _boxes(coords):
    b = np.roll(coords, -1, axis=0)
    return np.minimum(coords, b), np.maximum(coords, b)


def _star(rng, n):
    return random_star_polygon(rng, n).coords.copy()


def _fourier_curve(rng, n):
    theta = (np.arange(n) + rng.uniform()) * (2.0 * np.pi / n)
    r = np.ones(n)
    for k, amp in ((2, 0.05), (3, 0.03), (5, 0.01)):
        r += amp * rng.uniform(0.5, 1.0) * np.cos(k * theta + rng.uniform(0.0, 2.0 * np.pi))
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1) + rng.uniform(-3.0, 3.0, 2)


def _random_loops(rng, count):
    loops = []
    for k in range(count):
        n = int(rng.integers(4, 301))
        if k % 3 == 0:
            c = rng.uniform(-1.0, 1.0, (n, 2))
        else:
            c = _star(rng, n)
            if k % 3 == 2:
                i, j = rng.integers(0, n, 2)
                c[[i, j]] = c[[j, i]]
        loops.append(c)
    return loops


def _lattice_loops(rng, count):
    """Loops on a coarse lattice: exact touches and collinear overlaps.

    Half of them span [0, g] on both axes, g = isqrt(n), so the grid lines
    fall on lattice values and boxes touch exactly on them."""
    loops = []
    for k in range(count):
        n = int(rng.integers(4, 301))
        if k % 2 == 0:
            q = int(rng.integers(2, 8))
            c = np.round(_star(rng, n) * q) / q
        else:
            g = math.isqrt(n)
            c = rng.integers(0, g + 1, (n, 2)).astype(float)
            c[:2] = [(0.0, 0.0), (g, g)]
        loops.append(c)
    return loops


def _comb(teeth, gap_rel, lean, height):
    """Sawtooth comb whose tooth ``lean`` has its tip moved to within
    gap_rel of the diameter of the next tooth's left flank (a negative
    gap crosses it)."""
    top = []
    for t in range(teeth):
        top += [(float(t), 0.0), (t + 0.5, height)]
    top.append((float(teeth), 0.0))
    c = np.array([(0.0, -1.0), (float(teeth), -1.0)] + top[::-1])
    diam = math.hypot(teeth, height + 1.0)
    flank = np.array([lean + 1 + 0.3, 0.6 * height])
    normal = np.array([-height, 0.5]) / math.hypot(height, 0.5)
    tip = np.flatnonzero((c[:, 0] == lean + 0.5) & (c[:, 1] == height))[0]
    c[tip] = flank + gap_rel * diam * normal
    return c


def _slit_square(touch, gap=1.0, n=2048):
    """The square [0, 45]^2 with a slit of width ``gap`` from the top,
    sampled at about n vertices with dyadic steps. A loop of 2048 edges
    gets a 45 x 45 grid over this box, so grid lines fall on integers. With
    ``touch``, the vertex of the slit's left wall nearest (20, 20) moves
    onto the right wall, at x = 20 + gap."""
    corners = [(0, 0), (45, 0), (45, 45), (20 + gap, 45), (20 + gap, 5), (20, 5), (20, 45), (0, 45)]
    lengths = [math.dist(corners[k], corners[k - 7]) for k in range(8)]
    pts = []
    for k in range(8):
        p, q = np.array(corners[k], float), np.array(corners[(k + 1) % 8], float)
        m = max(1, round(lengths[k] / sum(lengths) * n))
        t = np.round(np.arange(m) / m * 1024) / 1024
        pts.append(p + t[:, None] * (q - p))
    c = np.concatenate(pts)
    _, first = np.unique(c, axis=0, return_index=True)
    c = c[np.sort(first)]
    if touch:
        wall = np.flatnonzero((c[:, 0] == 20.0) & (c[:, 1] > 5.0) & (c[:, 1] < 45.0))
        k = wall[np.argmin(np.abs(c[wall, 1] - 20.0))]
        c[k, 0] = 20.0 + gap
    return c


def _assert_same_verdict(c):
    c = np.ascontiguousarray(c, dtype=float)
    verdict = geometry._segments_intersect_any(c, np.roll(c, -1, axis=0))
    assert verdict == quadratic_segments_intersect_any(c)
    return verdict


def test_contact_verdicts_match_the_quadratic_reference_on_random_loops():
    verdicts = [_assert_same_verdict(c) for c in _random_loops(np.random.default_rng(61), 90)]
    assert 10 < sum(verdicts) < 80


def test_contact_verdicts_match_the_quadratic_reference_on_lattice_loops():
    verdicts = [_assert_same_verdict(c) for c in _lattice_loops(np.random.default_rng(62), 90)]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("teeth,height", [(30, 10.0), (400, 10.0), (1000, 0.05)])
def test_contact_verdicts_match_on_near_touching_combs(teeth, height):
    for lean in (1, teeth // 2):
        assert not _assert_same_verdict(_comb(teeth, 1e-12, lean, height))
        assert _assert_same_verdict(_comb(teeth, -1e-12, lean, height))
        _assert_same_verdict(_comb(teeth, 0.0, lean, height))


def test_contact_verdicts_match_on_every_test_data_polygon():
    checked = 0
    for path in sorted(DATA.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except ValueError:
            continue
        for key in ("polygon", "boundary_samples"):
            if key in data:
                _assert_same_verdict(data[key])
                checked += 1
    assert checked >= 7


def test_sampled_curves_with_one_contact_are_rejected():
    rng = np.random.default_rng(63)
    curve = _fourier_curve(rng, 2048)
    crossing = curve.copy()
    crossing[[100, 103]] = crossing[[103, 100]]
    chord = np.concatenate([curve[:1], curve[700:]])
    spike = curve.copy()
    spike[0] = curve.mean(axis=0) + 1.5 * (curve[1024] - curve.mean(axis=0))
    for c, simple in ((curve, True), (crossing, False), (chord, True), (spike, False),
                      (_slit_square(False), True), (_slit_square(True), False),
                      (_slit_square(False, 64e-12), True), (_slit_square(True, 64e-12), False)):
        assert _assert_same_verdict(c) is not simple
        if simple:
            Polygon(c)
        else:
            with pytest.raises(InvalidPolygonError, match="polygon is self-intersecting"):
                Polygon(c)


def test_candidate_pairs_cover_every_pair_of_touching_boxes():
    rng = np.random.default_rng(64)
    loops = _random_loops(rng, 30) + _lattice_loops(rng, 30) + [_slit_square(True, n=400)]
    for c in loops:
        n = len(c)
        lo, hi = _boxes(c)
        found = set()
        for i, j in geometry._candidate_edge_pairs(lo, hi):
            assert len(i) <= geometry._PAIR_BLOCK
            assert np.all(j - i >= 2) and not np.any((i == 0) & (j == n - 1))
            found.update(zip(i.tolist(), j.tolist()))
        i, j = np.triu_indices(n, 2)
        keep = (i > 0) | (j < n - 1)
        touch = keep & np.all((lo[i] <= hi[j]) & (lo[j] <= hi[i]), axis=1)
        assert set(zip(i[touch].tolist(), j[touch].tolist())) <= found


def test_candidate_pairs_stay_near_linear_on_sampled_curves():
    c = _fourier_curve(np.random.default_rng(65), 4096)
    blocks = list(geometry._candidate_edge_pairs(*_boxes(c)))
    assert sum(len(i) for i, _ in blocks) < 16 * len(c)


def test_crowded_loops_are_checked_in_bounded_blocks():
    # every tooth flank crosses the whole grid, so all pairs are candidates
    c = _comb(1000, -1e-12, 500, 10.0)
    blocks = list(geometry._candidate_edge_pairs(*_boxes(c)))
    n = len(c)
    assert sum(len(i) for i, _ in blocks) == n * (n - 3) // 2
    assert max(len(i) for i, _ in blocks) <= geometry._PAIR_BLOCK
    with pytest.raises(InvalidPolygonError, match="self-intersecting"):
        Polygon(c)


def test_loops_whose_extent_overflows_take_every_pair():
    c = _star(np.random.default_rng(68), 64)
    c = c / np.abs(c).max() * 1.7e308  # finite, but hi - lo overflows
    assert np.all(np.isfinite(c))
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = list(geometry._candidate_edge_pairs(*_boxes(c)))
        _assert_same_verdict(c)
    assert sum(len(i) for i, _ in blocks) == 64 * 61 // 2


def test_small_loops_take_every_non_adjacent_pair():
    tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert not geometry._segments_intersect_any(tri, np.roll(tri, -1, axis=0))
    for n in (4, 5, 8, 20):
        (i, j), = geometry._candidate_edge_pairs(*_boxes(_star(np.random.default_rng(n), n)))
        expected = [(a, b) for a in range(n) for b in range(a + 2, n) if (a, b) != (0, n - 1)]
        assert sorted(zip(i.tolist(), j.tolist())) == expected


# ---------------------------------------------------------------- diameter

def _point_sets(rng):
    sets = []
    for n in (9, 10, 40, 300, 3000):
        sets += [rng.uniform(-1.0, 1.0, (n, 2)) * 10.0 ** rng.uniform(-5, 5), rng.normal(size=(n, 2)),
                 _fourier_curve(rng, n), np.round(rng.uniform(-3.0, 3.0, (n, 2)))]
    for k in (2, 3, 5, 8, 64, 500):
        t = np.arange(2 * k) * (np.pi / k)
        sets.append(np.stack([np.cos(t), np.sin(t)], axis=1) * rng.uniform(0.1, 10.0) + rng.uniform(-5, 5, 2))
    sets += [
        np.repeat(rng.uniform(size=(3, 2)), 5, axis=0),
        np.repeat(rng.uniform(size=(1, 2)), 12, axis=0),
        np.stack([np.linspace(0.0, 1.0, 50), 2.0 * np.linspace(0.0, 1.0, 50)], axis=1),
        np.stack([0.1 * np.linspace(0.0, 1.0, 50), 0.3 * np.linspace(0.0, 1.0, 50)], axis=1),
        np.array([(0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.5)] * 3, dtype=float),
    ]
    return sets


def test_diameter_equals_the_all_pairs_scan():
    for pts in _point_sets(np.random.default_rng(66)):
        d = all_pairs_diameter(pts)
        assert geometry._max_pairwise_distance(pts) == d
        assert PointSet(pts).diameter == d


def test_polygon_diameter_equals_the_all_pairs_scan():
    rng = np.random.default_rng(67)
    for c in [_fourier_curve(rng, n) for n in (9, 100, 2048)] + [_star(rng, 200), _slit_square(False)]:
        assert Polygon(c).diameter == all_pairs_diameter(c)
    for k in (4, 6, 50, 1024):
        t = np.arange(2 * k) * (np.pi / k)
        c = np.stack([np.cos(t), np.sin(t)], axis=1)
        assert Polygon(c).diameter == all_pairs_diameter(c)


def test_fine_sampled_curve_constructs_in_near_linear_time():
    # the all-pairs routines took about 10 s here; the bound leaves 10x
    # headroom over the 0.2 s target for a slow shared machine
    c = _fourier_curve(np.random.default_rng(69), 16384)
    start = time.perf_counter()
    poly = Polygon(c)
    d = poly.diameter
    elapsed = time.perf_counter() - start
    assert 2.0 < d < 2.4
    assert elapsed < 2.0

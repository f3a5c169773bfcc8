import json
import math
import time
import warnings
from fractions import Fraction
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
    comb_polygon,
    exact_segments_touch,
    quadratic_segments_intersect_any,
    random_convex_polygon,
    random_star_polygon,
    scaled_all_pairs_diameter,
    star_loop,
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


@pytest.mark.parametrize("vertices,message", [
    ([(0.0, 0.0), (math.inf, 0.0), (3.0, 4.0)], "polygon has non-finite coordinates"),
    ([(0.0, 0.0), (3.0, math.nan), (3.0, 4.0)], "polygon has non-finite coordinates"),
    ([(0, 0), (10 ** 400, 0), (3, 4)], "vertices have a coordinate past the float range"),
])
def test_vertices_off_the_finite_floats_raise_invalid_polygon_error(vertices, message):
    with pytest.raises(InvalidPolygonError, match=f"^{message}$"):
        Polygon(vertices)


# ---------------------------------------------------------------- contact test
#
# ``geometry._segments_intersect_any`` tests only candidate pairs from a sort
# and sweep over the edge boxes; ``quadratic_segments_intersect_any`` tests
# every pair with the same predicate. Their verdicts must agree on every loop.

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

    Half of them are integer points of [0, g]^2, g = isqrt(n), so many
    boxes touch exactly along a shared coordinate or at a corner."""
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
    sampled at about n vertices with dyadic steps, so the boxes of the
    slit's two walls come within ``gap`` of each other. With ``touch``, the
    vertex of the slit's left wall nearest (20, 20) moves onto the right
    wall, at x = 20 + gap."""
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


def _sliver(n, angle, height=1e-3):
    """A thin loop of n edges, of length 1 along ``angle``: a side bowed
    out by ``height`` and a side that zigzags between one and two times
    ``height``, so that no two non-adjacent edges are nearly collinear."""
    m = n // 2
    s = np.concatenate([np.arange(m + 1) / m, np.arange(m - 1, 0, -1) / m])
    w = height * np.sin(np.pi * s) * np.concatenate([-np.ones(m + 1), 1.0 + np.arange(m - 1) % 2])
    d = np.array([math.cos(angle), math.sin(angle)])
    return s[:, None] * d + w[:, None] * np.array([-d[1], d[0]])


# the angle of a sliver whose edges all project into one short interval
# on (1, phi)
_PERPENDICULAR = math.atan2(1.0, -geometry._PHI)


def _flower(n):
    """n samples of the non-convex curve r = 1 + 0.4 cos(7 theta)."""
    t = np.arange(n) * (2.0 * np.pi / n)
    r = 1.0 + 0.4 * np.cos(7.0 * t)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)


def _pinched(c, rng):
    """c with one vertex repeated at a non-adjacent position."""
    c = c.copy()
    n = len(c)
    i = int(rng.integers(0, n))
    c[(i + int(rng.integers(2, n - 1))) % n] = c[i]
    return c


def _figure_eight(m, offset):
    """A loop of 8m edges through the vertex ``offset`` twice: its two
    lobes meet only there, and the four edges at that vertex lie in
    opposite quadrants of it, so their boxes touch only at that point."""
    corners = np.array([(0, 0), (-1, -0.3), (-1, 2), (0.3, 1), (0, 0), (1, 0.3), (2, -1), (-0.3, -1)])
    t = np.arange(m) / m
    c = np.concatenate([p + t[:, None] * (q - p) for p, q in zip(corners, np.roll(corners, -1, axis=0))])
    return c + offset


def _huge_star():
    """A 64-edge star loop of coordinates up to 1.7e308: finite, but the
    extent hi - lo overflows, and so do some of its sweep intervals' ends."""
    c = _star(np.random.default_rng(68), 64)
    return c / np.abs(c).max() * 1.7e308


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


def _assert_candidates_cover_touching_boxes(c):
    """The candidate pairs of loop c come in blocks of at most
    ``_PAIR_BLOCK`` pairs i < j of non-neighbours and include every such
    pair whose boxes touch. Returns how many there are."""
    n = len(c)
    lo, hi = _boxes(c)
    found = set()
    count = 0
    for i, j in geometry._candidate_edge_pairs(lo, hi):
        assert len(i) <= geometry._PAIR_BLOCK
        assert np.all(j - i >= 2) and not np.any((i == 0) & (j == n - 1))
        found.update(zip(i.tolist(), j.tolist()))
        count += len(i)
    for i in range(n - 2):
        j = np.arange(i + 2, n - 1 if i == 0 else n)
        touch = j[np.all((lo[i] <= hi[j]) & (lo[j] <= hi[i]), axis=1)]
        assert {(i, k) for k in touch.tolist()} <= found, i
    return count


def test_candidate_pairs_cover_every_pair_of_touching_boxes():
    rng = np.random.default_rng(64)
    loops = _random_loops(rng, 30) + _lattice_loops(rng, 30) + [_slit_square(True, n=400)]
    # stars of a few dozen edges and slivers at random angles: every loop
    # of 4 or more edges takes the sweep
    loops += [_star(rng, n) for n in (47, 48, 49) for _ in range(3)]
    loops += [_sliver(int(n), angle) for n, angle in zip(rng.integers(48, 400, 8), rng.uniform(0, 2 * np.pi, 8))]
    # perpendicular to (1, phi): swept along (1, -phi)
    loops += [_sliver(600, _PERPENDICULAR), _sliver(600, _PERPENDICULAR + math.pi)]
    loops.append(_huge_star())
    for c in loops:
        with np.errstate(over="ignore"):
            _assert_candidates_cover_touching_boxes(c)


def test_candidate_pairs_stay_near_linear_on_sampled_curves():
    # a count, not a timer, so a quadratic search fails on any machine:
    # every non-neighbour pair would be 2,003,000 pairs for the comb and
    # 8,382,464 for a 4096-edge sliver. A sliver perpendicular to (1, phi)
    # gives 2,845,977 along (1, phi) and is swept across, along (1, -phi);
    # at any other angle one of the two directions spreads it out
    rng = np.random.default_rng(69)
    loops = [_fourier_curve(np.random.default_rng(65), 4096), _comb(1000, 1e-12, 500, 10.0),
             _sliver(4096, 0.0), _slit_square(False), _flower(16384), _sliver(4096, _PERPENDICULAR),
             _sliver(600, _PERPENDICULAR + math.pi), _sliver(600, math.atan2(1.0, geometry._PHI))]
    loops += [_sliver(int(n), angle) for n, angle in zip(rng.integers(48, 1200, 24), rng.uniform(0, 2 * np.pi, 24))]
    for c in loops:
        blocks = geometry._candidate_edge_pairs(*_boxes(c))
        assert sum(len(i) for i, _ in blocks) < 16 * len(c), len(c)


def test_crowded_loops_are_checked_in_bounded_blocks():
    # the box of every tooth flank spans the comb's height: a comb 200
    # high with teeth 1 apart crowds (1, phi) and (1, -phi) alike, with
    # more than four blocks of candidates whichever is swept
    crossing = _comb(200, -1e-12, 100, 200.0)
    near = _comb(200, 1e-12, 100, 200.0)
    for comb in (crossing, near):
        assert _assert_candidates_cover_touching_boxes(comb) > 4 * geometry._PAIR_BLOCK
    assert _assert_same_verdict(crossing)
    assert not _assert_same_verdict(near)
    with pytest.raises(InvalidPolygonError, match="self-intersecting"):
        Polygon(crossing)
    Polygon(near)
    sliver = _sliver(600, _PERPENDICULAR)
    assert not _assert_same_verdict(sliver)
    assert _assert_same_verdict(_pinched(sliver, np.random.default_rng(73)))
    Polygon(sliver)


def test_loops_whose_extent_overflows_keep_the_reference_verdict():
    c = _huge_star()
    assert np.all(np.isfinite(c))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.any(np.isinf(c[:, 0] + geometry._PHI * c[:, 1]))  # an interval end
        for loop in (c, _pinched(c, np.random.default_rng(68))):
            _assert_candidates_cover_touching_boxes(loop)
            assert _assert_same_verdict(loop) is (loop is not c)


def test_a_far_vertex_keeps_the_exact_verdict_of_short_edges():
    # star loops with one vertex pushed along its direction to 1e100 or
    # 1e150, rolled to mid-loop (vertex 0 far is a zero shoelace area): a
    # short edge near the far vertex's neighbour, seen from the far end of
    # the long edge, rounded to a crossing in 11 of the 31 simple loops
    rng = np.random.default_rng(5)
    for n in range(6, 40):
        c = random_star_polygon(rng, n).coords
        for far in (1e100, 1e150):
            d = c.copy()
            d[0] *= far / np.hypot(*d[0])
            d = np.roll(d, -(n // 2), axis=0)
            touch = any(exact_segments_touch(d[i], d[(i + 1) % n], d[j], d[(j + 1) % n])
                        for i in range(n) for j in range(i + 2, n - (i == 0)))
            assert _assert_same_verdict(d) is touch, (n, far)
            if not touch:
                Polygon(d)


def test_a_far_vertex_leaves_the_contacts_of_small_features_alone():
    # a comb of teeth about 1e-200 of a far vertex's distance: scaled to
    # coordinates below 1, the teeth's orientations would underflow to zero
    # and leave near-touching teeth to their overlapping boxes
    for gap in (1e-3, -1e-3):
        c = np.insert(_comb(30, gap, 1, 10.0), 1, (15.0, -1e200), axis=0)
        assert _assert_same_verdict(c) is (gap < 0)


def test_loops_that_repeat_a_vertex_are_rejected_at_every_scale():
    # the repeated vertex is a corner of four edge boxes, and in the figure
    # eight the only point where boxes of non-neighbours touch; it must
    # project to the same float as a low and as a high end, which a
    # projection rounded differently for lo and hi (a BLAS matrix product
    # that fuses some multiply-adds, say) need not give
    rng = np.random.default_rng(72)
    loops = [_pinched(_star(rng, n), rng) for n in (48, 64, 200)]
    loops += [_pinched(_lattice_loops(rng, 1)[0], rng) for _ in range(2)]
    loops += [_figure_eight(m, rng.uniform(-2.0, 2.0, 2)) for m in (6, 7, 8, 25)]
    for k in range(-900, 901, 50):
        for c in loops:
            with np.errstate(all="ignore"):
                assert _assert_same_verdict(np.ldexp(c, k)), (k, len(c))


def test_a_triangle_has_no_edge_pair_to_test():
    tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    assert not geometry._segments_intersect_any(tri, np.roll(tri, -1, axis=0))


# simple, with four nearly collinear vertices: the rounded orientations of
# its edges 0 and 2, whose boxes are disjoint, have opposite signs
NEARLY_COLLINEAR_PENTAGON = np.array([
    (0.3582590031265157, 0.10386583068924533), (0.22250599769663765, 0.2432442588894879),
    (0.21972123493478898, 0.24610339158734568), (0.14628812844575934, 0.3214976042450446),
    (0.0, 0.0)])


def test_no_disjoint_pair_reads_as_touching():
    for c in (NEARLY_COLLINEAR_PENTAGON, NEARLY_COLLINEAR_PENTAGON[::-1]):
        n = len(c)
        assert not any(exact_segments_touch(c[i], c[(i + 1) % n], c[j], c[(j + 1) % n])
                       for i in range(n) for j in range(i + 2, n - (i == 0)))
        assert not geometry._segments_intersect_any(c, np.roll(c, -1, axis=0))
    # pairs of disjoint segments a -> b and c -> d on one random line each,
    # at four sorted parameters, rounded to floats
    rng = np.random.default_rng(0)
    m = 20000
    angle = rng.uniform(0.0, 2.0 * np.pi, m)
    t = np.sort(rng.uniform(-1.0, 1.0, (m, 4)), axis=1)
    pts = rng.uniform(-1.0, 1.0, (m, 1, 2)) + t[:, :, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)[:, None]
    assert not any(exact_segments_touch(*q) for q in pts)
    # edge 2k runs from a to b, edge 2k + 1 from c to d
    rows = np.concatenate([pts[:, 0::2], pts[:, 1::2]], axis=2).reshape(2 * m, 4).T.copy()
    assert not geometry._edges_touch(rows, np.arange(0, 2 * m, 2), np.arange(1, 2 * m, 2))


# ---------------------------------------------------------------- convex loops
#
# A loop whose turns all pass the orient2d filter with one sign and make one
# revolution is accepted without the edge-pair search; every other loop
# still takes it. Either way the verdict is the quadratic reference's.

def _ellipse(rng, n):
    """n points of a rotated, shifted ellipse at sorted random angles."""
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    a, b = rng.uniform(0.2, 3.0, 2)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    x, y = a * np.cos(t), b * np.sin(t)
    return np.stack([x * math.cos(phi) - y * math.sin(phi), x * math.sin(phi) + y * math.cos(phi)],
                    axis=1) + rng.uniform(-3.0, 3.0, 2)


def _exact_turn(a, b, c):
    """The turn (b - a) x (c - b) in rational arithmetic."""
    (ax, ay), (bx, by), (cx, cy) = ((Fraction(float(u)), Fraction(float(v))) for u, v in (a, b, c))
    return (bx - ax) * (cy - by) - (by - ay) * (cx - bx)


def _with_extra_vertex(c, inward):
    """Counterclockwise loop c with the midpoint of its first edge inserted
    or, with ``inward``, that midpoint moved one ulp to the inner side.

    The edge's ends are first rounded to multiples of 2**-40, so the
    midpoint is exact and lies on the edge; the loop's turns are far larger
    than that rounding."""
    c = c.copy()
    c[:2] = np.round(c[:2] * 2.0 ** 40) / 2.0 ** 40
    a, b = c[0], c[1]
    m = (a + b) / 2.0
    assert _exact_turn(a, m, b) == 0
    if inward:
        # the inner normal of a counterclockwise edge d is (-d_y, d_x)
        d = b - a
        if abs(d[1]) >= abs(d[0]):
            m[0] = np.nextafter(m[0], -math.copysign(math.inf, d[1]))
        else:
            m[1] = np.nextafter(m[1], math.copysign(math.inf, d[0]))
        assert _exact_turn(a, m, b) < 0
    return np.insert(c, 1, m, axis=0)


def _with_misrounded_vertex(c, rng):
    """Counterclockwise loop c with a vertex inserted just inside one of its
    edges, at a point where the rounded turn there has the convex sign."""
    for k in range(len(c)):
        a, b = c[k], c[(k + 1) % len(c)]
        for t in rng.uniform(0.4, 0.6, 2000):
            m = a + t * (b - a)
            e, f = m - a, b - m
            if _exact_turn(a, m, b) < 0 < e[0] * f[1] - e[1] * f[0]:
                return np.insert(c, k + 1, m, axis=0)
    raise AssertionError("no misrounded point found")


def _convex_route(c):
    """Whether ``geometry._turns`` certifies the loop c convex."""
    return geometry._turns(np.roll(c, -1, axis=0) - c)[1]


def _star_polygon(n, k):
    """The regular star polygon {n/k}: every turn has one sign, and the
    turns add up to k revolutions."""
    t = np.arange(n) * (2.0 * np.pi * k / n)
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def test_convex_loops_skip_the_pair_search_and_keep_the_reference_verdict(monkeypatch):
    real = geometry._segments_intersect_any
    searched = []
    monkeypatch.setattr(geometry, "_segments_intersect_any",
                        lambda coords, nxt: searched.append(len(coords)) or real(coords, nxt))

    def verdict(c, reverse=True):
        """(simple, searched): the constructor's verdict on c and, with
        ``reverse``, on c reversed, which must be the reference's on c, and
        whether it searched the edge pairs."""
        c = np.ascontiguousarray(c, dtype=float)
        found = []
        for loop in (c, c[::-1]) if reverse else (c,):
            searched.clear()
            try:
                Polygon(loop)
            except InvalidPolygonError as exc:
                assert "self-intersecting" in str(exc)
                found.append((False, bool(searched)))
            else:
                found.append((True, bool(searched)))
        assert found[0] == found[-1]
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            assert found[0][0] is not quadratic_segments_intersect_any(c)
        return found[0]

    rng = np.random.default_rng(71)
    loops = [make(rng, n) for n in (4, 5, 8, 9, 64, 1000) for make in (_fourier_curve, _ellipse)]
    for curve in loops + [_fourier_curve(rng, 4096)]:
        assert verdict(curve) == (True, False), len(curve)
        # a vertex on an edge, or one ulp inside it, makes a turn that the
        # convex route refuses; the loop stays star-shaped around the mean
        # of its vertices, and that certificate skips the search
        for inward in (False, True):
            c = _with_extra_vertex(curve, inward)
            assert not _convex_route(c)
            assert verdict(c) == (True, False), len(curve)
    # the same vertex on a comb, which is star-shaped around no point,
    # leaves the verdict to the search
    for inward in (False, True):
        assert verdict(_with_extra_vertex(comb_polygon(4).coords, inward)) == (True, True)
    # on edges as long as the coordinates, rounding the differences that
    # make the edges can give a reflex turn the convex sign: only the error
    # bound sees it
    for n in (5, 6, 7):
        curve = _fourier_curve(rng, n)
        c = _with_misrounded_vertex(curve - curve.mean(axis=0), rng)
        assert not _convex_route(c)
        assert verdict(c) == (True, False)
    # below about 1e-146 the turns' products may underflow and certify nothing
    curve = _fourier_curve(rng, 64)
    for scale in (1e-160, 1e-150, 1e-140, 1e-100, 1.0, 1e100, 1e150):
        assert verdict(curve * scale) == (True, scale < 1e-145), scale
    for n, k in ((5, 2), (7, 3)):
        c = _star_polygon(n, k)
        cross, certified = geometry._turns(np.roll(c, -1, axis=0) - c)
        assert np.all(cross > 0.0) and not certified
        assert verdict(c) == (False, True)
    assert verdict([(0, 0), (1, 1), (1, 0), (0, 1)]) == (False, True)
    # a loop that turns twice, its edges 1.4e154 long where they run within
    # 20 degrees of an axis: the dot products of those turns overflow and
    # would read as no turn, so the loop would count one revolution
    d = np.arange(48) * (np.pi / 12)
    near = np.abs((d + np.pi / 4) % (np.pi / 2) - np.pi / 4) < math.radians(20)
    e = np.stack([np.cos(d), np.sin(d)], axis=1) * np.where(near, 1.4e154, 1.4e151)[:, None]
    assert verdict(np.cumsum(e, axis=0)) == (False, True)
    # simple, with one certified reflex turn and four nearly collinear
    # vertices, whose rounded orientations read as a crossing of two edges
    # with disjoint boxes; it must not take the convex route, and it is
    # star-shaped around the mean of its vertices
    assert not _convex_route(NEARLY_COLLINEAR_PENTAGON)
    assert verdict(NEARLY_COLLINEAR_PENTAGON) == (True, False)


# ---------------------------------------------------------------- star-shaped loops
#
# A loop that, seen from the mean of its vertices, subtends angles that all
# pass the orient2d filter with one sign and make one revolution is simple,
# and it too is accepted without the edge-pair search.

def _count_searches(monkeypatch):
    """A list that gains an entry at every edge-pair search."""
    real = geometry._segments_intersect_any
    searched = []
    monkeypatch.setattr(geometry, "_segments_intersect_any",
                        lambda coords, nxt: searched.append(1) or real(coords, nxt))
    return searched


def _searched_verdict(c, searched):
    """(self-intersecting, searched) for Polygon(c), which must be the
    quadratic reference's verdict on c, and whether it searched the pairs
    (``searched`` from ``_count_searches``). Any other rejection (an area
    that overflows) counts as not self-intersecting."""
    searched.clear()
    c = np.ascontiguousarray(c, dtype=float)
    try:
        Polygon(c)
        crossing = False
    except InvalidPolygonError as exc:
        crossing = "self-intersecting" in str(exc)
    with np.errstate(all="ignore"):
        assert crossing is quadratic_segments_intersect_any(c)
    return crossing, bool(searched)


def test_star_shaped_loops_keep_the_reference_verdict(monkeypatch):
    searched = _count_searches(monkeypatch)
    rng = np.random.default_rng(29)
    loops = [_star(rng, n) for n in (4, 5, 8, 8, 8, 16, 64, 300)]
    loops += [star_loop(rng) for _ in range(40)]
    loops += [comb_polygon(t).coords for t in (2, 5)] + [_comb(30, g, 1, 10.0) for g in (1e-12, -1e-12, 0.0)]
    loops += [np.array([(0, 0), (1, 1), (1, 0), (0, 1)], dtype=float)]
    # bowties: two vertices of a star swapped
    for _ in range(20):
        c = star_loop(rng, int(rng.integers(4, 9)))
        i, j = rng.choice(len(c), 2, replace=False)
        c[[i, j]] = c[[j, i]]
        loops.append(c)
    # the vertex mean on a vertex, on an edge and on an edge's line beyond
    # it: that edge subtends no angle, and the search decides
    on_the_mean = [np.array(c, dtype=float) for c in (
        [(0, 0), (-1, -1), (2, 0), (-1, 1)],
        [(-1, -1), (1, -1), (1, 1), (5, 3), (-1, 1)],
        [(-1, -1), (1, -1), (1, 1), (5, 13), (-1, 1)])]
    for c in on_the_mean:
        assert _searched_verdict(c, searched) == (False, True)
    loops += on_the_mean
    # one vertex pushed far out along its ray from the anchor
    for big in (1e100, 1e150, 1e200, 1e300):
        c = star_loop(rng)
        c[0] *= big / np.hypot(*c[0])
        loops.append(c)
    skipped = {}
    for c in loops:
        for scale in (1e-160, 1e-150, 1e-140, 1e-100, 1.0, 1e100, 1e150):
            if math.log10(np.max(np.abs(c))) + math.log10(scale) < 308.0:
                for loop in (c, c[::-1]):
                    skipped[scale] = skipped.get(scale, 0) + (not _searched_verdict(loop * scale, searched)[1])
    # below about 1e-146 the products may underflow and certify nothing;
    # above it, every star of the list skips the search
    assert skipped[1e-160] == skipped[1e-150] == 0
    assert all(skipped[scale] >= 96 for scale in (1e-140, 1e-100, 1.0, 1e100, 1e150))
    # a star that subtends angles too small for the products' exponent
    # range certifies nothing, and the search decides
    assert _searched_verdict(star_loop(rng) * 1e-160, searched) == (False, True)
    # every edge of {5/2} and {7/3} subtends the same angle, with one sign,
    # for two and three revolutions
    for n, k in ((5, 2), (7, 3)):
        c = _star_polygon(n, k)
        g = c.mean(axis=0)
        cross, certified = geometry._winds_once(c - g, np.roll(c, -1, axis=0) - g)
        assert np.all(cross > 0.0) and not certified
        assert _searched_verdict(c, searched) == (True, True)


def test_almost_every_star_eight_gon_skips_the_pair_search(monkeypatch):
    searched = _count_searches(monkeypatch)
    rng = np.random.default_rng(30)
    for _ in range(1000):
        Polygon(star_loop(rng))
    assert len(searched) <= 10


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
    # flat sets that qhull refuses
    for n in (100, 2000):
        sets += [np.outer(rng.uniform(-1.0, 1.0, n), rng.normal(size=2)) + rng.normal(size=2),
                 np.repeat(rng.normal(size=(2, 2)), [n // 2, n - n // 2], axis=0)]
    return sets


def test_diameter_equals_the_all_pairs_scan():
    for pts in _point_sets(np.random.default_rng(66)):
        d = all_pairs_diameter(pts)
        assert geometry._max_pairwise_distance(pts) == d
        assert PointSet(pts).diameter == d


def test_small_diameter_equals_the_scaled_double_loop_bit_for_bit():
    # up to 8 rows: sqrt(max(dx * dx + dy * dy)) over every pair, one pair
    # at a time in Python floats, under the same power-of-two scaling
    def double_loop(pts):
        exp = math.frexp(float(np.max(np.abs(pts))))[1]
        q = np.ldexp(pts, -exp).tolist()
        best = 0.0
        for i in range(len(q)):
            for j in range(i + 1, len(q)):
                dx, dy = q[j][0] - q[i][0], q[j][1] - q[i][1]
                best = max(best, dx * dx + dy * dy)
        return math.ldexp(math.sqrt(best), exp)

    rng = np.random.default_rng(161)
    for n in range(3, 9):
        for _ in range(40):
            pts = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-5, 5) + rng.uniform(-5, 5, 2)
            rep = pts[rng.integers(0, n, n)]
            line = np.outer(rng.uniform(-1, 1, n), rng.normal(size=2)) + rng.normal(size=2)
            for c in (pts, rep, line, np.repeat(pts[:1], n, axis=0)):
                for scale in (1.0, 1e-300, 1e300):
                    assert geometry._max_pairwise_distance(c * scale) == double_loop(c * scale)


def test_convex_loops_take_the_calipers_diameter_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(72)
    loops = [make(rng, n) for n in (9, 10, 33, 257, 2048, 4096) for make in (_fourier_curve, _ellipse)]
    hull = [geometry._max_pairwise_distance(c) for c in loops]

    def refuse(pts):
        raise AssertionError("a certified-convex loop took the hull")

    monkeypatch.setattr(geometry, "_convex_hull", refuse)
    for c, d in zip(loops, hull):
        poly = Polygon(c)
        assert poly._certified_convex
        assert poly.diameter == all_pairs_diameter(c, hull=False) == d


def _seeded_diameter_sets(rng, count):
    """(is_loop, k, rows) for count sets of 9 to 200 rows: normal clouds,
    lattices, star loops, flat and nearly flat lines along an axis or at a
    random angle and repeated rows, each offset and scaled by 2^k, k in
    -900, 0, 900."""
    def line(n):
        angle = rng.choice([0.0, 0.5 * np.pi, rng.uniform(0.0, 2.0 * np.pi)])
        return np.outer(rng.uniform(-1.0, 1.0, n), [math.cos(angle), math.sin(angle)])

    makes = [
        lambda n: rng.normal(size=(n, 2)),
        lambda n: rng.integers(-3, 4, (n, 2)).astype(float),
        lambda n: _star(rng, n),
        line,
        lambda n: line(n) + rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-16.0, -6.0),
        lambda n: rng.normal(size=(3, 2))[rng.integers(0, rng.integers(1, 4), n)],
    ]
    for m in range(count):
        pts = makes[m % len(makes)](int(rng.integers(9, 201)))
        offset = rng.normal(size=2) * 10.0 ** rng.uniform(-2.0, 4.0)
        k = int(rng.choice([-900, 0, 900]))
        yield m % len(makes) == 2, k, np.ldexp(pts + offset, k)


def test_diameter_equals_the_scaled_all_pairs_reference_bit_for_bit():
    for loop, k, pts in _seeded_diameter_sets(np.random.default_rng(163), 1200):
        d = scaled_all_pairs_diameter(pts)
        assert geometry._max_pairwise_distance(pts) == d
        if loop and k == 0:  # a Polygon's area leaves the float range at 2^+-900
            assert Polygon(pts).diameter == d
    # a flat set's rounding noise leaves a hull of a few dozen rows at most
    rng = np.random.default_rng(164)
    flat = np.outer(rng.uniform(-1.0, 1.0, 2000), rng.normal(size=2)) + rng.normal(size=2)
    assert len(geometry._convex_hull(flat)) <= 30
    assert geometry._max_pairwise_distance(flat) == scaled_all_pairs_diameter(flat)


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

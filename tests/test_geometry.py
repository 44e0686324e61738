"""Polyline geometry: Hausdorff distance and self-intersection detection."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpaths.errors import InvalidArgument
from qpaths.geometry import _thin, hausdorff_distance, polyline_self_intersects

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]


def test_identical_polylines_are_at_distance_zero():
    assert hausdorff_distance(UNIT_SQUARE, UNIT_SQUARE) == 0.0


def test_parallel_segments():
    a = [(0.0, 0.0), (1.0, 0.0)]
    b = [(0.0, 0.5), (1.0, 0.5)]
    assert hausdorff_distance(a, b) == pytest.approx(0.5)


def test_offset_squares():
    shifted = [(x + 0.25, y) for x, y in UNIT_SQUARE]
    assert hausdorff_distance(UNIT_SQUARE, shifted) == pytest.approx(0.25)


def test_point_against_segment():
    # Degenerate one-point polyline against a segment: the segment's far
    # endpoint dominates the symmetric distance.
    assert hausdorff_distance([(0.0, 1.0)], [(0.0, 0.0), (2.0, 0.0)]) == pytest.approx(
        math.hypot(2.0, 1.0)
    )


def test_projection_beats_vertex_sampling():
    # The closest approach lands mid-segment (distance 0.3, not the 0.583
    # to either vertex); the far direction is dominated by an endpoint.
    a = [(0.5, 0.3)]
    b = [(0.0, 0.0), (1.0, 0.0)]
    assert hausdorff_distance(a, b) == pytest.approx(math.hypot(0.5, 0.3))


def test_multi_part_input_does_not_bridge_parts():
    # The probe set sits on the square's corners plus its center. Against
    # the two separate horizontal sides the center is 0.5 away; a spurious
    # bridging segment between the parts would pass through it.
    parts = [[(0.0, 0.0), (1.0, 0.0)], [(0.0, 1.0), (1.0, 1.0)]]
    probe = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (1.0, 1.0)]
    assert hausdorff_distance(probe, parts) == pytest.approx(0.5)
    # Parts of different lengths form no rectangular array.
    ragged = [[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], [(0.0, 1.0), (1.0, 1.0)]]
    assert hausdorff_distance(probe, ragged) == pytest.approx(0.5)


def test_curve_object_input():
    from qpaths.curves import Curve

    curve = Curve(np.array([(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]))
    assert hausdorff_distance(curve, [(0.0, 0.0), (1.0, 0.0)]) == 0.0


def test_empty_input_rejected():
    with pytest.raises(InvalidArgument):
        hausdorff_distance([], UNIT_SQUARE)
    with pytest.raises(InvalidArgument):
        hausdorff_distance(UNIT_SQUARE, [])
    # A nan distance would drop out of max(), and an inf vertex has none.
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidArgument, match="finite vertices"):
            hausdorff_distance([[0, 0], [1, 1]], [[bad, 0], [1, 1]])


@given(
    st.floats(-5, 5),
    st.floats(-5, 5),
)
@settings(max_examples=40, deadline=None)
def test_translation_invariance(dx, dy):
    a = [(0.0, 0.0), (1.0, 0.2), (2.0, 0.0)]
    b = [(0.0, 1.0), (2.0, 1.4)]
    base = hausdorff_distance(a, b)
    moved = hausdorff_distance(
        [(x + dx, y + dy) for x, y in a], [(x + dx, y + dy) for x, y in b]
    )
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


@given(st.floats(0.01, 3.0))
@settings(max_examples=40, deadline=None)
def test_shift_bounds_distance(shift):
    a = [(0.0, 0.0), (1.0, 0.2), (2.0, 0.0)]
    b = [(x, y + shift) for x, y in a]
    assert hausdorff_distance(a, b) == pytest.approx(shift, rel=1e-9)


def test_symmetry():
    a = [(0.0, 0.0), (1.0, 0.7), (2.0, -0.3)]
    b = [(0.0, 1.0), (0.5, 0.1), (2.0, 1.4)]
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)


def test_self_intersection_bowtie():
    bowtie = [(0, 0), (1, 1), (1, 0), (0, 1)]
    assert polyline_self_intersects(bowtie)


def test_no_self_intersection_square_and_arc():
    assert not polyline_self_intersects([(0, 0), (1, 0), (1, 1), (0, 1)])
    theta = np.linspace(0.0, 0.9 * math.pi, 500)
    arc = np.column_stack([np.cos(theta), np.sin(theta)])
    assert not polyline_self_intersects(arc)


def test_no_false_positive_on_near_duplicate_points():
    # Saturated tails produce runs of bitwise-near-identical points.
    pts = [(0.0, 0.0), (1.0, 0.5)]
    pts += [(2.0 + k * 1e-16, 1.0) for k in range(40)]
    assert not polyline_self_intersects(pts)


def test_closed_loop_endpoints_do_not_count():
    assert not polyline_self_intersects(UNIT_SQUARE)


def all_pairs_self_intersects(points) -> bool:
    """Brute-force oracle: the same thinning and crossing test on every pair."""
    pts = np.asarray(points, dtype=float)
    diam = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    tol = 1e-9 * max(diam, 1e-300)
    kept = [pts[0]]
    for p in pts[1:]:
        if max(abs(p[0] - kept[-1][0]), abs(p[1] - kept[-1][1])) > tol:
            kept.append(p)
    a = np.asarray(kept)
    for i in range(len(a) - 1):
        for j in range(i + 2, len(a) - 1):
            r, s = a[i + 1] - a[i], a[j + 1] - a[j]
            qp = a[j] - a[i]
            denom = r[0] * s[1] - r[1] * s[0]
            if not abs(denom) > 1e-9 * math.sqrt((r @ r) * (s @ s)):
                continue
            t = (qp[0] * s[1] - qp[1] * s[0]) / denom
            u = (qp[0] * r[1] - qp[1] * r[0]) / denom
            if 1e-9 < t < 1 - 1e-9 and 1e-9 < u < 1 - 1e-9:
                return True
    return False


@st.composite
def polylines(draw):
    """Random polylines, closed loops, near-duplicate runs, vertical and near-parallel segments."""
    coord = st.floats(-4.0, 4.0, allow_nan=False)
    if draw(st.booleans()):
        coord = st.integers(-3, 3).map(float)  # grid points: vertical and collinear segments
    pts = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=25))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(pts) - 1))
        x, y = pts[at]
        kind = draw(st.sampled_from(["duplicates", "vertical", "near_parallel"]))
        if kind == "duplicates":
            step = draw(st.sampled_from([1e-16, 1e-12, 1e-10]))
            extra = [(x + k * step, y - k * step) for k in range(1, draw(st.integers(2, 8)))]
        elif kind == "vertical":
            extra = [(x, y + draw(st.floats(-4.0, 4.0)))]
        else:
            # A copy of the segment ending at pts[at], offset and turned slightly.
            px, py = pts[at - 1]
            off = draw(st.floats(-1e-3, 1e-3))
            turn = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-5]))
            extra = [(px + off, py - off), (x + off + turn, y - off)]
        pts[at + 1 : at + 1] = extra
    if draw(st.booleans()):
        pts.append(pts[0])
    return pts


@given(polylines())
@settings(max_examples=400, deadline=None)
def test_crossing_scan_matches_all_pairs(pts):
    assert polyline_self_intersects(pts) == all_pairs_self_intersects(pts)


def greedy_thin(points) -> np.ndarray:
    """The plain greedy thinning scan over every point, kept as the oracle
    of the repeat-dropping and long-step shortcuts."""
    pts = np.asarray(points, dtype=float)
    diam = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    tol = 1e-9 * max(diam, 1e-300)
    xy = pts.tolist()
    kept = [0]
    last_x, last_y = xy[0]
    for i, (x, y) in enumerate(xy):
        if max(abs(x - last_x), abs(y - last_y)) > tol:
            kept.append(i)
            last_x, last_y = x, y
    return pts[kept]


@st.composite
def thinning_polylines(draw):
    """Polylines with runs of exact repeats, steps next to the thinning
    tolerance 1e-9 * diameter and next to the 4 * tol past which _thin
    keeps a point unscanned, zigzags of a short step and a long step
    back, closed loops, coordinates about 1e6 diameters from the origin,
    and a non-finite vertex after the long steps of the polyline."""
    coord = st.floats(-4.0, 4.0, allow_nan=False)
    if draw(st.booleans()):
        coord = st.integers(-3, 3).map(float)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
    arr = np.asarray(pts)
    diam = max(float(np.max(arr.max(axis=0) - arr.min(axis=0))), 1e-300)
    tol = 1e-9 * diam
    # Far from the origin a step of tol spans only a few units of rounding.
    shift = draw(st.sampled_from([0.0, 1e6 * diam, -1e6 * diam]))
    pts = [(x + shift, y + shift) for x, y in pts]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(pts) - 1))
        x, y = pts[at]
        kind = draw(st.sampled_from(["repeats", "steps", "zigzag"]))
        axis = draw(st.integers(0, 1))
        sign = draw(st.sampled_from([1.0, -1.0]))
        if kind == "repeats":
            offsets = [0.0] * draw(st.integers(1, 5))
        elif kind == "steps":
            # Steps of a multiple of tol, give or take a few units of
            # rounding, along either axis.
            factor = draw(st.sampled_from([0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, 3.9, 4.0, 4.1]))
            offsets = [k * factor * tol * sign for k in range(1, draw(st.integers(1, 4)) + 1)]
        else:
            # A short step, then a longer step back, and again: back to
            # within tol of the last kept point, or past 4 tol.
            short = draw(st.sampled_from([0.5, 0.9, 1.0, 2.0, 3.9])) * tol * sign
            back = draw(st.sampled_from([1.5, 1.9, 4.0, 4.1, 6.0])) * tol * sign
            offsets = []
            for k in range(draw(st.integers(1, 3))):
                offsets += [k * (short - back) + short, (k + 1) * (short - back)]
        extra = [(x + o, y) if axis == 0 else (x, y + o) for o in offsets]
        pts[at + 1 : at + 1] = extra
    if draw(st.booleans()):
        pts.append(pts[0])
    bad = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    if bad is not None:
        at = draw(st.integers(1, len(pts)))
        x, y = pts[at - 1]
        pts.insert(at, (bad, y) if draw(st.booleans()) else (x, bad))
    return pts


@given(thinning_polylines())
@settings(max_examples=400, deadline=None)
def test_thinning_shortcuts_match_the_greedy_scan(pts):
    assert np.array_equal(_thin(np.asarray(pts, dtype=float)), greedy_thin(pts))
    assert polyline_self_intersects(pts) == all_pairs_self_intersects(pts)


@pytest.mark.parametrize("first_short", [0, 1, 5, 18, None])
def test_thinning_starts_its_scan_at_the_first_short_step(first_short):
    # The scan reads only the points after a step of at most 4 tol, each
    # run of them from the point before it; a point after a longer step is
    # kept unscanned. Runs of short steps at the start, inside or at the
    # end of the arc, or none at all, thin as the greedy scan over every
    # point does.
    theta = np.linspace(0.0, 3.0, 20)
    pts = np.column_stack((np.cos(theta), np.sin(theta)))
    if first_short is not None:
        tol = 1e-9 * float(np.max(pts.max(axis=0) - pts.min(axis=0)))
        for at in sorted({first_short, 18}, reverse=True):
            run = pts[at] + np.outer([0.3, 0.6, 1.2, 1.5, 3.0, 3.9, 7.9, 4.0], [tol, -tol])
            pts = np.concatenate((pts[: at + 1], run, pts[at + 1 :]))
    assert np.array_equal(_thin(pts), greedy_thin(pts))


@pytest.mark.parametrize("at", range(5))
def test_nan_vertex_thins_as_the_oracle_does(at):
    # A NaN vertex makes the figure diameter NaN, so the thinning keeps
    # only the first point and nothing crosses.
    pts = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
    pts.insert(at, (math.nan, 0.5))
    assert np.array_equal(_thin(np.asarray(pts)), greedy_thin(pts), equal_nan=True)
    assert polyline_self_intersects(pts) == all_pairs_self_intersects(pts) is False


def test_figure_eight_crossing_between_first_and_last_segments():
    # The first segment runs up the diagonal through (0, 0); after the right
    # lobe and a detour below, the last one comes down the other diagonal.
    eight = [(-1, -1), (1, 1), (2, 0), (1, -1), (0, -2.5), (-2.5, 0), (-1, 1), (1, -1)]
    assert polyline_self_intersects(eight)
    assert polyline_self_intersects(eight[::-1])
    assert not polyline_self_intersects(eight[:-1])


def test_crossing_scan_memory_on_a_long_spiral():
    theta = np.linspace(0.0, 1.5 * math.pi, 4000)
    spiral = np.column_stack([(1.0 + theta) * np.cos(theta), (1.0 + theta) * np.sin(theta)])
    tracemalloc.start()
    try:
        crossing = polyline_self_intersects(spiral)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not crossing
    assert peak < 20 * 2**20

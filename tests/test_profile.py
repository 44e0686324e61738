"""Piecewise-linear start densities and their degenerate limit shapes."""

import math

import pytest

from qpaths.errors import InvalidArgument, UnsupportedConfiguration
from qpaths.profile import StartDensity, freezing_tent, limit_curve

THIRDS = StartDensity([(1 / 3, 2.0), (1 / 3, 4.0), (1 / 3, 2.0)])
FILLED = StartDensity([(1 / 3, 2.0), (1 / 3, 1.0), (1 / 3, 2.0)])
GAPPED = StartDensity([(1 / 2, 2.0), (1 / 2, 2.0)], jumps=[(1 / 2, 1.0)])
HEXAGON = StartDensity([(1 / 3, 1.0), (2 / 3, 1.0)], jumps=[(1 / 3, 1.0)])


def close(points, expected, tol=1e-12):
    assert len(points) == len(expected)
    for (x, y), (ex, ey) in zip(points, expected):
        assert math.isclose(x, ex, abs_tol=tol)
        assert math.isclose(y, ey, abs_tol=tol)


def test_validation_collects_all_problems():
    with pytest.raises(InvalidArgument) as err:
        StartDensity([(0.45, 2.0), (0.45, 0.5)], jumps=[(0.7, -1.0)])
    message = str(err.value)
    assert "sum to 1" in message
    assert "slope must be >= 1" in message
    assert "height must be positive" in message
    assert "segment boundary" in message


def test_validation_single_problems():
    with pytest.raises(InvalidArgument):
        StartDensity([])
    for width in (0.0, -0.5):
        with pytest.raises(InvalidArgument, match="segment 1: width must be positive"):
            StartDensity([(1.0, 2.0), (width, 2.0)])
    # Every number goes through errors.real_value first.
    for width, problem in ((math.nan, "must be finite"), ("0.5", "must be a real number"),
                           (True, "must be a real number"), (10**400, "lies beyond the float range")):
        with pytest.raises(InvalidArgument, match=f"^segment 1: width {problem}"):
            StartDensity([(1.0, 2.0), (width, 2.0)])
    with pytest.raises(InvalidArgument):
        StartDensity([(1.0, 2.0)], jumps=[(0.0, 1.0)])
    with pytest.raises(InvalidArgument):
        StartDensity([(0.5, 2.0), (0.5, 2.0)], jumps=[(0.5, 1.0), (0.5, 2.0)])


def test_alpha_evaluation():
    d = THIRDS
    assert d.alpha(0.0) == 0.0
    assert d.alpha(1 / 3) == pytest.approx(2 / 3)
    assert d.alpha(0.5) == pytest.approx(2 / 3 + 4 * (0.5 - 1 / 3))
    assert d.alpha(2 / 3) == pytest.approx(2.0)
    assert d.alpha(1.0) == pytest.approx(8 / 3)
    assert d.alpha_top == pytest.approx(8 / 3)
    with pytest.raises(InvalidArgument):
        d.alpha(1.2)


def test_alpha_with_jump_uses_upper_value():
    d = GAPPED
    assert d.alpha(0.5) == pytest.approx(2.0)
    assert d.alpha(0.5 - 1e-12) == pytest.approx(1.0, abs=1e-10)
    assert d.alpha_top == pytest.approx(3.0)


def test_window_detection():
    assert THIRDS.windows == ()

    (w,) = FILLED.windows
    assert w.kind == "filled" and w.internal
    assert (w.a_lo, w.a_hi) == pytest.approx((2 / 3, 1.0))

    (w,) = GAPPED.windows
    assert w.kind == "gap" and w.internal
    assert (w.a_lo, w.a_hi) == pytest.approx((1.0, 2.0))

    kinds = sorted((w.kind, w.internal) for w in HEXAGON.windows)
    # Two edge-touching filled strips plus the internal gap.
    assert kinds == [("filled", False), ("filled", False), ("gap", True)]

    # Each window is one element: FILLED's slope-1 piece, GAPPED's jump.
    assert [w.element for w in FILLED.windows] == [1]
    assert [w.element for w in GAPPED.windows] == [1]
    assert [(w.kind, w.element) for w in HEXAGON.windows] == [
        ("filled", 0), ("gap", 1), ("filled", 2)
    ]
    for d in (FILLED, GAPPED, HEXAGON):
        for w in d.windows:
            el = d.elements[w.element]
            assert (el.a_lo, el.a_hi) == (w.a_lo, w.a_hi)


def test_equal_slope_pieces_merge_unless_a_jump_splits_them():
    (el,) = StartDensity([(0.5, 2.0), (0.5, 2.0)]).elements
    assert (el.u_lo, el.u_hi, el.a_lo, el.a_hi, el.p) == (0.0, 1.0, 0.0, 2.0, 2.0)
    assert [el.kind for el in GAPPED.elements] == ["segment", "jump", "segment"]
    split = StartDensity([(0.25, 2.0), (0.25, 1.0), (0.25, 1.0), (0.25, 2.0)])
    (w,) = split.windows
    assert (w.kind, w.a_lo, w.a_hi, w.internal, w.element) == ("filled", 0.5, 1.0, True, 1)
    # One limit vertex per piece: the collinear seam vertex is gone.
    close(limit_curve(split, "q_to_0")[0], [(1, 1), (1.25, 0.75), (1.25, 0.25), (1.5, 0)])


def test_limit_curve_piecewise_linear_vertices():
    main, closing = limit_curve(THIRDS, "q_to_0")
    close(main, [(1, 1), (4 / 3, 2 / 3), (7 / 3, 1 / 3), (8 / 3, 0)])
    close(closing, [(0, 0), (1, 1)])

    main, closing = limit_curve(THIRDS, "q_to_inf")
    close(main, [(0, 0), (2 / 3, 1 / 3), (2, 2 / 3), (8 / 3, 1)])
    close(closing, [(8 / 3, 1), (8 / 3, 0)])


def test_limit_curve_with_jump_has_horizontal_step():
    main, _ = limit_curve(GAPPED, "q_to_0")
    close(main, [(1, 1), (3 / 2, 1 / 2), (5 / 2, 1 / 2), (3, 0)])
    main, _ = limit_curve(GAPPED, "q_to_inf")
    close(main, [(0, 0), (1, 1 / 2), (2, 1 / 2), (3, 1)])


def test_limit_curve_rejects_unknown_limit():
    with pytest.raises(InvalidArgument):
        limit_curve(THIRDS, "q_to_2")


def test_freezing_tent_filled_window():
    (w,) = FILLED.windows
    close(freezing_tent(FILLED, w, "q_to_0"), [(2 / 3, 0), (4 / 3, 2 / 3), (4 / 3, 1 / 3), (1, 0)])


def test_freezing_tent_gap_window():
    (w,) = GAPPED.windows
    close(freezing_tent(GAPPED, w, "q_to_inf"), [(1, 0), (1, 1 / 2), (2, 1 / 2), (2, 0)])


def test_freezing_tent_rejects_a_window_of_another_profile():
    with pytest.raises(InvalidArgument):
        freezing_tent(FILLED, GAPPED.windows[0], "q_to_0")


def test_freezing_tent_rejects_edge_windows():
    edge = next(w for w in HEXAGON.windows if not w.internal)
    with pytest.raises(UnsupportedConfiguration):
        freezing_tent(HEXAGON, edge, "q_to_0")

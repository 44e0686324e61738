"""Piecewise-linear start-density profiles and their limit geometry.

A profile is the macroscopic density of path starting points: consecutive
linear pieces of slope >= 1 whose widths sum to one, with optional upward
jumps at piece boundaries. Jumps encode macroscopic gaps in the starting
points; slope-1 pieces encode fully filled intervals. Both seed frozen
regions and extra arctic-curve portions, so they are represented exactly
rather than as limits of steep or flat pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

from .errors import InvalidArgument, UnsupportedConfiguration

_WIDTH_SUM_TOL = 1e-9
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class ProfileElement:
    """One piece of the density in traversal order.

    kind "segment": linear piece on [u_lo, u_hi] raising the density value
    from a_lo to a_hi with slope p. kind "jump": discontinuity at u_lo ==
    u_hi raising the value from a_lo to a_hi with no u-extent.
    """

    kind: Literal["segment", "jump"]
    u_lo: float
    u_hi: float
    a_lo: float
    a_hi: float
    p: float | None


@dataclass(frozen=True)
class WindowSpec:
    """A freezing window: the density-value range it spans and its origin."""

    kind: Literal["gap", "filled"]
    a_lo: float
    a_hi: float
    internal: bool


class StartDensity:
    """Validated piecewise-linear start-point density."""

    __slots__ = ("_elements", "_windows")

    def __init__(
        self,
        segments: Sequence[tuple[float, float]],
        jumps: Sequence[tuple[float, float]] = (),
    ):
        segs = [(float(g), float(p)) for g, p in segments]
        if not segs:
            raise InvalidArgument("profile needs at least one segment")
        problems = []
        for i, (g, p) in enumerate(segs):
            if not (g > 0.0 and math.isfinite(g)):
                problems.append(f"segment {i}: width must be positive, got {g}")
            if not (p >= 1.0 and math.isfinite(p)):
                problems.append(f"segment {i}: slope must be >= 1, got {p}")
        total = math.fsum(g for g, _ in segs)
        if abs(total - 1.0) > _WIDTH_SUM_TOL:
            problems.append(f"segment widths must sum to 1, got {total}")

        cum = [0.0]
        for g, _ in segs:
            cum.append(cum[-1] + g)
        cum[-1] = 1.0

        jmp = sorted((float(u), float(d)) for u, d in jumps)
        used_boundaries: set[int] = set()
        jump_at: dict[int, float] = {}
        for u, d in jmp:
            if not (d > 0.0 and math.isfinite(d)):
                problems.append(f"jump at u={u}: height must be positive, got {d}")
            if not 0.0 < u < 1.0:
                problems.append(f"jump location {u} must lie strictly inside (0, 1)")
                continue
            hit = None
            for b in range(1, len(segs)):
                if abs(u - cum[b]) <= _BOUNDARY_TOL:
                    hit = b
                    break
            if hit is None:
                problems.append(
                    f"jump location {u} does not coincide with a segment boundary"
                )
            elif hit in used_boundaries:
                problems.append(f"multiple jumps at segment boundary u={cum[hit]}")
            else:
                used_boundaries.add(hit)
                jump_at[hit] = d
        if problems:
            raise InvalidArgument("; ".join(problems))

        elements: list[ProfileElement] = []
        a = 0.0
        for i, (g, p) in enumerate(segs):
            u_lo, u_hi = cum[i], cum[i + 1]
            elements.append(ProfileElement("segment", u_lo, u_hi, a, a + p * g, p))
            a += p * g
            d = jump_at.get(i + 1)
            if d is not None:
                elements.append(ProfileElement("jump", u_hi, u_hi, a, a + d, None))
                a += d

        self._elements = tuple(elements)
        self._windows = self._find_windows(elements)

    @staticmethod
    def _find_windows(elements: list[ProfileElement]) -> tuple[WindowSpec, ...]:
        windows: list[WindowSpec] = []
        run_start: ProfileElement | None = None
        run_end: ProfileElement | None = None

        def flush() -> None:
            nonlocal run_start, run_end
            if run_start is not None:
                internal = run_start.u_lo > 0.0 and run_end.u_hi < 1.0
                windows.append(WindowSpec("filled", run_start.a_lo, run_end.a_hi, internal))
            run_start = run_end = None

        for el in elements:
            if el.kind == "segment" and el.p == 1.0:
                if run_start is None:
                    run_start = el
                run_end = el
            else:
                flush()
                if el.kind == "jump":
                    windows.append(WindowSpec("gap", el.a_lo, el.a_hi, True))
        flush()
        return tuple(windows)

    @property
    def elements(self) -> tuple[ProfileElement, ...]:
        return self._elements

    @property
    def windows(self) -> tuple[WindowSpec, ...]:
        return self._windows

    @property
    def alpha_top(self) -> float:
        """Density value at u = 1: total slope-weighted width plus jumps."""
        return self._elements[-1].a_hi

    def segment_elements(self) -> Iterator[ProfileElement]:
        return (el for el in self._elements if el.kind == "segment")

    def breakpoints_u(self) -> tuple[float, ...]:
        """Interior u values where the density kinks or jumps."""
        pts = {el.u_hi for el in self._elements}
        return tuple(sorted(p for p in pts if 0.0 < p < 1.0))

    def alpha(self, u: float) -> float:
        """Density value at u, right-continuous at jump locations."""
        if not 0.0 <= u <= 1.0:
            raise InvalidArgument(f"u must lie in [0, 1], got {u}")
        if u == 1.0:
            return self.alpha_top
        value = 0.0
        for el in self._elements:
            if el.kind == "jump":
                if el.u_lo <= u:
                    value = el.a_hi
                continue
            if u < el.u_hi:
                return el.a_lo + el.p * (u - el.u_lo)
            value = el.a_hi
        return value


def limit_curve(
    d: StartDensity, which: Literal["q_to_0", "q_to_inf"]
) -> list[list[tuple[float, float]]]:
    """Limit shape of the arctic curve as the weight degenerates.

    Returns two polylines [main, closing]. For q_to_0 the main polyline
    runs from (1, 1) to (alpha_top, 0): each linear piece contributes a
    step (slope-1 pieces give vertical steps) and each jump a horizontal
    step; the closing piece is the diagonal from (0, 0) to (1, 1). For
    q_to_inf the main polyline runs from (0, 0) to (alpha_top, 1) and the
    closing piece is the vertical drop at alpha_top.
    """
    if which not in ("q_to_0", "q_to_inf"):
        raise InvalidArgument(f"unknown limit {which!r}")
    if which == "q_to_0":
        pts = [(1.0, 1.0)]
        x, y = pts[0]
        for el in d.elements:
            if el.kind == "segment":
                x += (el.p - 1.0) * (el.u_hi - el.u_lo)
                y -= el.u_hi - el.u_lo
            else:
                x += el.a_hi - el.a_lo
            pts.append((x, y))
        return [pts, [(0.0, 0.0), (1.0, 1.0)]]
    pts = [(0.0, 0.0)]
    x, y = pts[0]
    for el in d.elements:
        if el.kind == "segment":
            x += el.a_hi - el.a_lo
            y += el.u_hi - el.u_lo
        else:
            x += el.a_hi - el.a_lo
        pts.append((x, y))
    top = d.alpha_top
    return [pts, [(top, 1.0), (top, 0.0)]]


def _limit_vertices_through(
    d: StartDensity, which: str
) -> list[tuple[ProfileElement, tuple[float, float], tuple[float, float]]]:
    main = limit_curve(d, which)[0]
    return [(el, main[i], main[i + 1]) for i, el in enumerate(d.elements)]


def freezing_tent(
    d: StartDensity,
    window: WindowSpec,
    which: Literal["q_to_0", "q_to_inf"],
) -> list[tuple[float, float]]:
    """Limiting boundary of the frozen region seeded by a freezing window.

    The extra arctic-curve portion traced inside the window collapses, in
    the degenerate limit, onto three sides of a strip: a connector up from
    (a_lo, 0), the merge segment shared with the main limit polyline, and
    a connector back down to (a_hi, 0). Connectors are at 45 degrees for
    q_to_0 and vertical for q_to_inf. Only windows strictly inside the
    profile have this documented limit.
    """
    if not window.internal:
        raise UnsupportedConfiguration(
            "freezing windows touching the profile edge have no documented limit shape"
        )
    verts = _limit_vertices_through(d, which)
    lo_v = hi_v = None
    for el, before, after in verts:
        matches = (
            (window.kind == "gap" and el.kind == "jump")
            or (window.kind == "filled" and el.kind == "segment" and el.p == 1.0)
        )
        if matches and el.a_lo >= window.a_lo - 1e-12 and el.a_hi <= window.a_hi + 1e-12:
            if lo_v is None:
                lo_v = before
            hi_v = after
    if lo_v is None:
        raise InvalidArgument("window does not belong to this profile")
    return [(window.a_lo, 0.0), lo_v, hi_v, (window.a_hi, 0.0)]

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

from .errors import InvalidArgument, UnsupportedConfiguration, real_value

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
    """A freezing window: the density-value range it spans and its origin.

    ``element`` indexes the window's element in ``StartDensity.elements``:
    the slope-1 segment of a filled window or the jump of a gap window.
    """

    kind: Literal["gap", "filled"]
    a_lo: float
    a_hi: float
    internal: bool
    element: int


class StartDensity:
    """Validated piecewise-linear start-point density.

    Every number goes through the rule of :func:`errors.real_value`, and
    the constructor lists every refusal in one InvalidArgument.  Adjacent
    segments of equal slope with no jump between them form one element, so
    each slope-1 element and each jump is one freezing window.

    The density also holds the scaled state of the last base it met
    (``_scaled``, kept by :func:`qpaths.curves._scaled`), so repeated calls
    at one base build the branch ladder once.
    """

    __slots__ = ("_elements", "_windows", "_scaled")

    def __init__(
        self,
        segments: Sequence[tuple[float, float]],
        jumps: Sequence[tuple[float, float]] = (),
    ):
        problems: list[str] = []

        def number(value, what: str) -> float:
            # A refused number is listed and stands in as nan, which the
            # sign checks below pass over.
            try:
                return real_value(value, what)
            except InvalidArgument as exc:
                problems.append(str(exc))
                return math.nan

        segs = [(number(g, f"segment {i}: width"), number(p, f"segment {i}: slope"))
                for i, (g, p) in enumerate(segments)]
        if not segs:
            raise InvalidArgument("profile needs at least one segment")
        for i, (g, p) in enumerate(segs):
            if g <= 0.0:
                problems.append(f"segment {i}: width must be positive, got {g}")
            if p < 1.0:
                problems.append(f"segment {i}: slope must be >= 1, got {p}")
        total = math.fsum(g for g, _ in segs)
        if abs(total - 1.0) > _WIDTH_SUM_TOL:
            problems.append(f"segment widths must sum to 1, got {total}")

        cum = [0.0]
        for g, _ in segs:
            cum.append(cum[-1] + g)
        cum[-1] = 1.0

        jump_at: dict[int, float] = {}
        given = [(number(u, f"jump {i}: location"), number(d, f"jump {i}: height"))
                 for i, (u, d) in enumerate(jumps)]
        for u, d in sorted(j for j in given if not math.isnan(j[0])):
            if d <= 0.0:
                problems.append(f"jump at u={u}: height must be positive, got {d}")
            if not 0.0 < u < 1.0:
                problems.append(f"jump location {u} must lie strictly inside (0, 1)")
                continue
            if math.isnan(total):
                continue  # a refused width leaves no boundary to match
            hit = None
            for b in range(1, len(segs)):
                if abs(u - cum[b]) <= _BOUNDARY_TOL:
                    hit = b
                    break
            if hit is None:
                problems.append(
                    f"jump location {u} does not coincide with a segment boundary"
                )
            elif hit in jump_at:
                problems.append(f"multiple jumps at segment boundary u={cum[hit]}")
            else:
                jump_at[hit] = d
        if problems:
            raise InvalidArgument("; ".join(problems))

        # Adjacent segments of equal slope with no jump between them are one
        # piece; a piece starts at each other segment boundary.
        starts = [i for i, (_, p) in enumerate(segs)
                  if i == 0 or p != segs[i - 1][1] or i in jump_at]
        elements: list[ProfileElement] = []
        a = 0.0
        for lo, hi in zip(starts, starts[1:] + [len(segs)]):
            g, p = sum(w for w, _ in segs[lo:hi]), segs[lo][1]
            elements.append(ProfileElement("segment", cum[lo], cum[hi], a, a + p * g, p))
            a += p * g
            d = jump_at.get(hi)
            if d is not None:
                elements.append(ProfileElement("jump", cum[hi], cum[hi], a, a + d, None))
                a += d

        self._elements = tuple(elements)
        # Each slope-1 piece is one filled window, each jump one gap window.
        self._windows = tuple(
            WindowSpec("gap" if el.kind == "jump" else "filled", el.a_lo, el.a_hi,
                       0 < i < len(elements) - 1, i)
            for i, el in enumerate(elements)
            if el.kind == "jump" or el.p == 1.0
        )
        self._scaled = None

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

    def alpha(self, u: float) -> float:
        """Density value at u, right-continuous at jump locations."""
        if not 0.0 <= u <= 1.0:
            raise InvalidArgument(f"u must lie in [0, 1], got {u}")
        if u == 1.0:
            return self.alpha_top
        # The segments cover [0, 1) and a jump starts the next one, so the
        # segment holding u gives the right-continuous value.
        el = next(el for el in self.segment_elements() if u < el.u_hi)
        return el.a_lo + el.p * (u - el.u_lo)


def _check_base(qq: float) -> float:
    """The base qq of the scaled model as a float (see errors.real_value):
    finite, positive and not 1."""
    qq = real_value(qq, "base")
    if qq <= 0.0:
        raise InvalidArgument(f"base must be a finite positive number, got {qq!r}")
    if qq == 1.0:
        raise InvalidArgument(
            "base 1 is the unweighted point; the scaled model needs base != 1"
        )
    return qq


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
    to_0 = which == "q_to_0"
    x, y = (1.0, 1.0) if to_0 else (0.0, 0.0)
    pts = [(x, y)]
    for el in d.elements:
        du = el.u_hi - el.u_lo
        x += (el.p - 1.0) * du if to_0 and el.kind == "segment" else el.a_hi - el.a_lo
        y += -du if to_0 else du
        pts.append((x, y))
    top = d.alpha_top
    return [pts, [(0.0, 0.0), (1.0, 1.0)] if to_0 else [(top, 1.0), (top, 0.0)]]


def freezing_tent(
    d: StartDensity,
    window: WindowSpec,
    which: Literal["q_to_0", "q_to_inf"],
) -> list[tuple[float, float]]:
    """Limiting boundary of the frozen region seeded by a freezing window.

    The extra arctic-curve portion traced inside the window collapses, in
    the degenerate limit, onto three sides of a strip: a connector up from
    (a_lo, 0), the merge segment shared with the main limit polyline (the
    step of the window's element), and a connector back down to (a_hi, 0).
    Connectors are at 45 degrees for q_to_0 and vertical for q_to_inf.
    Only windows strictly inside the profile have this documented limit.
    """
    if window not in d.windows:
        raise InvalidArgument("window does not belong to this profile")
    if not window.internal:
        raise UnsupportedConfiguration(
            "freezing windows touching the profile edge have no documented limit shape"
        )
    main = limit_curve(d, which)[0]
    return [(window.a_lo, 0.0), main[window.element], main[window.element + 1], (window.a_hi, 0.0)]

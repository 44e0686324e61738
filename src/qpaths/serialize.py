"""CSV and SVG emission.

CSV files carry a header row, LF line endings, floats at 17 significant
digits (enough for bit-exact round-trips) and exact rationals as num/den.
SVG output is a flat polyline rendering with no plotting dependencies.
"""

from __future__ import annotations

import csv
import decimal
import io
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidArgument

_FLOAT_FMT = "%.17g"
_DIGITS = re.compile(r"[+-]?[0-9]+")


# int <-> str conversion is capped at a few thousand digits; decimal
# converts from the binary limbs and has no such cap.
def _format_int(value: int) -> str:
    return str(decimal.Decimal(value))


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        if not _DIGITS.fullmatch(text):
            raise
        return int(decimal.Decimal(text))


def format_cell(value) -> str:
    """Render one CSV cell; exact types stay exact, floats keep 17 digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise InvalidArgument("booleans have no CSV rendering")
    if isinstance(value, int):
        return _format_int(value)
    if isinstance(value, Fraction):
        return f"{_format_int(value.numerator)}/{_format_int(value.denominator)}"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    raise InvalidArgument(f"cannot render {type(value).__name__} in CSV")


def parse_cell(text: str):
    """Inverse of format_cell for numeric cells; leaves other text alone."""
    try:
        return _parse_int(text)
    except ValueError:
        pass
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return Fraction(_parse_int(num), _parse_int(den))
        except ValueError:
            return text
    try:
        return float(text)
    except ValueError:
        return text


def emit_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    # newline="" hands line-ending control to the csv writer (always LF).
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(emit_csv(header, rows))


def read_csv(source: str) -> tuple[list[str], list[list]]:
    """Parse CSV text into (header, typed rows)."""
    reader = csv.reader(io.StringIO(source))
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidArgument("empty CSV document") from None
    rows = [[parse_cell(cell) for cell in row] for row in reader if row]
    return header, rows


def load_csv(path: str) -> tuple[list[str], list[list]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_csv(fh.read())


_PALETTE = ("#1f6f8b", "#c1443c", "#3a7d44", "#8a4f9e", "#b8860b", "#555555")


def render_svg(
    items: Sequence[dict],
    *,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    width: int = 720,
) -> str:
    """Render polylines into a standalone SVG document.

    Each item is a dict with "points" (sequence of (x, y)) and optional
    "stroke", "width", "dash". The viewBox is fixed by x_range/y_range so
    separately produced documents overlay consistently.
    """
    x0, x1 = float(x_range[0]), float(x_range[1])
    y0, y1 = float(y_range[0]), float(y_range[1])
    if not (x1 > x0 and y1 > y0):
        raise InvalidArgument("svg ranges must be nonempty")
    margin = 20.0
    scale = (width - 2 * margin) / (x1 - x0)
    height = 2 * margin + scale * (y1 - y0)

    def to_pixel(p):
        px = margin + (p[0] - x0) * scale
        py = height - margin - (p[1] - y0) * scale
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:.6g}">',
        f'<rect width="{width:g}" height="{height:.6g}" fill="white"/>',
    ]
    for i, item in enumerate(items):
        pts = [to_pixel(p) for p in item["points"]]
        if len(pts) < 2:
            continue
        stroke = item.get("stroke") or _PALETTE[i % len(_PALETTE)]
        stroke_width = item.get("width", 1.5)
        dash = item.get("dash")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}"'
            f' stroke-width="{stroke_width:g}"{dash_attr}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: str, document: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(document)

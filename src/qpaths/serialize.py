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
# The numeric forms format_cell writes; int() and float() accept more
# ("1_000", " 7", Unicode digits, "Infinity"), and such text stays text.
_INT = re.compile(r"[+-]?[0-9]+")
_RATIO = re.compile(r"([+-]?[0-9]+)/([+-]?0*[1-9][0-9]*)")
_FLOAT = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?|inf|nan)")


# int <-> str conversion is capped at a few thousand digits; past the cap,
# decimal converts from the binary limbs, which has no such cap.
def _format_int(value: int) -> str:
    try:
        return str(value)
    except ValueError:
        return str(decimal.Decimal(value))


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # past the digit cap
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
    """Inverse of format_cell: the numeric forms it writes become numbers,
    and any other text is returned as it is."""
    if _INT.fullmatch(text):
        return _parse_int(text)
    ratio = _RATIO.fullmatch(text)
    if ratio:
        return Fraction(_parse_int(ratio[1]), _parse_int(ratio[2]))
    if _FLOAT.fullmatch(text):
        return float(text)
    return text


# Cell types a %-format renders exactly as format_cell does. Their
# subclasses (bool, np.float64) and all other types go through format_cell.
_ROW_SPECS = {float: _FLOAT_FMT, int: "%d", str: "%s"}


def _row_format(kinds: tuple) -> tuple[str, bool] | None:
    """The %-format of a row of cells of exactly these types, and whether it has text."""
    if not all(kind in _ROW_SPECS for kind in kinds):
        return None
    return ",".join(_ROW_SPECS[kind] for kind in kinds) + "\n", str in kinds


def _unquoted(line: str, cells: int) -> bool:
    """Whether csv writes the text cells of this %-rendered row as they are.

    Numbers render without ',', '"', CR or LF, so each of those in the line
    comes from a text cell, which csv may quote; such rows and a lone empty
    cell are left to the csv writer.
    """
    return (line.count(",") == cells - 1 and line.count("\n") == 1 and len(line) > 1
            and '"' not in line and "\r" not in line)


def emit_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    formats: dict[tuple, tuple[str, bool] | None] = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = _row_format(kinds)
        fast = formats[kinds]
        if fast is not None:
            fmt, has_text = fast
            try:
                line = fmt % row
            except ValueError:  # an int past the int-to-str digit cap
                pass
            else:
                if not has_text or _unquoted(line, len(row)):
                    buf.write(line)
                    continue
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
_SVG_WIDTH = 720


def render_svg(
    items: Sequence[dict],
    *,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
) -> str:
    """Render polylines into a standalone SVG document.

    Each item is a dict with "points" (sequence of (x, y)) and optional
    "stroke", "width", "dash". The viewBox is fixed by x_range/y_range so
    separately produced documents overlay consistently; the document is
    _SVG_WIDTH pixels wide.
    """
    x0, x1 = float(x_range[0]), float(x_range[1])
    y0, y1 = float(y_range[0]), float(y_range[1])
    if not (x1 > x0 and y1 > y0):
        raise InvalidArgument("svg ranges must be nonempty")
    margin = 20.0
    scale = (_SVG_WIDTH - 2 * margin) / (x1 - x0)
    height = 2 * margin + scale * (y1 - y0)

    def to_pixel(p):
        px = margin + (p[0] - x0) * scale
        py = height - margin - (p[1] - y0) * scale
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_WIDTH:g} {height:.6g}">',
        f'<rect width="{_SVG_WIDTH:g}" height="{height:.6g}" fill="white"/>',
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

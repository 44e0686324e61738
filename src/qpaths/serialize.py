"""CSV and SVG emission.

CSV files carry a header row, LF line endings, floats at 17 significant
digits (enough to read back the same value) and exact rationals as num/den.
A float with an integral value is written in integer form (1.0 as ``1``,
-0.0 as ``-0``), so it reads back as an int of that value: the type and
the sign of a zero are not kept.
numpy tables (ArrayRows) and index-value tables (IndexedRows, when the
values are all ints or all floats) are formatted in blocks with one
%-format per block; other rows, text among them, go one by one through
format_cell and the csv writer. SVG output is a flat polyline rendering
with no plotting dependencies, each polyline mapped to pixels with numpy,
kept at one vertex per 0.01-px cell and formatted with one %-format.

A float array row whose cells after the first have the bits of the row
before's is not formatted again: it reuses that row's text (_row_cells),
which pays where arctic curves repeat a point on many rows.
"""

from __future__ import annotations

import csv
import decimal
import io
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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
    """Read back what format_cell writes: its numeric forms become numbers,
    and any other text is returned as it is.

    An int, a Fraction and a non-integral float come back as they were.  An
    integral float, written in integer form, comes back as an int of the
    same value: ``format_cell(1.0)`` is ``1`` and reads back as 1, and
    ``format_cell(-0.0)`` is ``-0`` and reads back as 0.
    """
    if _INT.fullmatch(text):
        return _parse_int(text)
    ratio = _RATIO.fullmatch(text)
    if ratio:
        return Fraction(_parse_int(ratio[1]), _parse_int(ratio[2]))
    if _FLOAT.fullmatch(text):
        return float(text)
    return text


# Rows are written in blocks of this many, one %-format per block.
_BLOCK_ROWS = 2048
# The %-spec of a cell of exactly this type, as format_cell renders it.
# Subclasses (bool, np.float64) and all other types go through format_cell.
_SPECS = {float: _FLOAT_FMT, int: "%d"}


@dataclass(frozen=True, eq=False)
class ArrayRows:
    """CSV rows from a 2-D numpy array of ints or floats.

    Each row is the ``labels`` cells followed by one row of ``cells``.
    emit_csv formats them in blocks, one %-format per block, and renders
    every cell as format_cell renders the Python int or float.
    """

    cells: np.ndarray
    labels: tuple = ()


@dataclass(frozen=True, eq=False)
class IndexedRows:
    """CSV rows (k, values[k]) for k = 0 .. len(values) - 1, written as
    those rows would be, but a block of values all ints or all floats takes
    one %-format of the index and the values interleaved, forming no row."""

    values: Sequence


def _fixed_cell(value) -> str:
    """One cell as format_cell and csv write it among others, %-escaped for a row format."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([format_cell(value), ""])
    return buf.getvalue()[:-2].replace("%", "%%")


def _row_cells(rows: np.ndarray) -> tuple[list[str], Sequence]:
    """The %-specs of one row and the row-major cells of a 2-D float array,
    for one %-format of its rows with every cell at 17 digits, comma-joined.

    The columns after the first form a row's tail. A tail whose bits equal
    the tail of the row before it is not formatted again: the tail of each
    run of equal rows is formatted once, and its text goes in as one
    ``%s`` cell. Bits, not values, decide, so -0.0 after 0.0 keeps its own
    text. When no tail repeats, or the rows have no tail, the cells are
    the array's own.
    """
    import numpy as np
    width = rows.shape[1]
    specs = [_FLOAT_FMT] * width
    # Each tail cell as its raw bytes.
    bits = rows[:, 1:].view(np.dtype((np.void, rows.itemsize)))
    repeat = (bits[1:] == bits[:-1]).all(axis=1)
    if width < 2 or not repeat.any():
        return specs, rows.ravel().tolist()
    fresh = np.concatenate(([True], ~repeat))
    tail_fmt = ",".join(specs[1:]) + "\n"
    texts = (tail_fmt * int(fresh.sum()) % tuple(rows[fresh, 1:].ravel().tolist())).split("\n")
    tails = map(texts.__getitem__, (np.cumsum(fresh) - 1).tolist())
    return [_FLOAT_FMT, "%s"], tuple(chain.from_iterable(zip(rows[:, 0].tolist(), tails)))


def _write_indexed_rows(out, writer, item: IndexedRows) -> None:
    for lo in range(0, len(item.values), _BLOCK_ROWS):
        block = item.values[lo : lo + _BLOCK_ROWS]
        index = range(lo, lo + len(block))
        kinds = set(map(type, block))  # one %-spec for values all ints or all floats
        spec = _SPECS.get(kinds.pop()) if len(kinds) == 1 else None
        if spec:
            cells = [lo] * (2 * len(block))
            cells[::2], cells[1::2] = index, block
            try:
                out.write(f"%d,{spec}\n" * len(block) % tuple(cells))
                continue
            except ValueError:  # an int past the int-to-str digit cap
                pass
        writer.writerows([format_cell(k), format_cell(v)] for k, v in zip(index, block))


def _write_array_rows(out, item: ArrayRows) -> None:
    import numpy as np
    cells = np.asarray(item.cells)
    if cells.ndim != 2 or not cells.shape[1]:
        raise InvalidArgument(f"array rows need a 2-D array with columns, got shape {cells.shape}")
    if cells.dtype.kind in "iu":
        spec = "%d"
    elif cells.dtype.kind == "f":
        spec = _FLOAT_FMT
    else:
        raise InvalidArgument(f"cannot render {cells.dtype} arrays in CSV")
    prefix = "".join(_fixed_cell(label) + "," for label in item.labels)
    for lo in range(0, len(cells), _BLOCK_ROWS):
        block = cells[lo : lo + _BLOCK_ROWS]
        # Float rows reuse the text of a repeated tail after the first column
        # (t on an arctic curve, which moves on every row); ints keep one
        # %-format per block.
        if spec == _FLOAT_FMT:
            specs, flat = _row_cells(block)
        else:
            specs, flat = [spec] * block.shape[1], block.ravel().tolist()
        out.write((prefix + ",".join(specs) + "\n") * len(block) % tuple(flat))


def _write_csv(out, header: Sequence[str], rows: Iterable) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        if isinstance(row, ArrayRows):
            _write_array_rows(out, row)
        elif isinstance(row, IndexedRows):
            _write_indexed_rows(out, writer, row)
        else:
            writer.writerow([format_cell(v) for v in row])


def emit_csv(header: Sequence[str], rows: Iterable) -> str:
    """CSV text of a header and rows; each item of ``rows`` is a sequence of
    cells, an ArrayRows block or an IndexedRows table."""
    buf = io.StringIO()
    _write_csv(buf, header, rows)
    return buf.getvalue()


@contextmanager
def _replacing(path: str):
    """A file whose text replaces path on a clean exit; a raise leaves path as it was."""
    partial = f"{path}.{os.getpid()}.partial"
    try:
        # newline="" keeps line endings as written (the csv writer's are LF).
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable) -> None:
    """Stream the CSV of a header and rows to path, as _replacing writes."""
    with _replacing(path) as fh:
        _write_csv(fh, header, rows)


def write_text(path: str, text: str) -> None:
    """Write text to path, as _replacing writes."""
    with _replacing(path) as fh:
        fh.write(text)


def read_csv(source: str) -> tuple[list[str], list[list]]:
    """Parse CSV text into (header, typed rows)."""
    reader = csv.reader(io.StringIO(source))
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidArgument("empty CSV document") from None
    rows = [[parse_cell(cell) for cell in row] for row in reader if row]
    return header, rows


_PALETTE = ("#1f6f8b", "#c1443c", "#3a7d44", "#8a4f9e", "#b8860b", "#555555")
_SVG_WIDTH = 720
# A polyline keeps one vertex per 10**-_SVG_DECIMALS-px cell of the
# canvas, and writes its pixel coordinates with that many decimals.
_SVG_DECIMALS = 2


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
    _SVG_WIDTH pixels wide. A vertex in the pixel cell (_SVG_DECIMALS) of
    the vertex before it, in both coordinates, is dropped, and an item
    left with fewer than two vertices draws nothing.
    """
    import numpy as np
    x0, x1 = float(x_range[0]), float(x_range[1])
    y0, y1 = float(y_range[0]), float(y_range[1])
    if not (x1 > x0 and y1 > y0):
        raise InvalidArgument("svg ranges must be nonempty")
    margin = 20.0
    scale = (_SVG_WIDTH - 2 * margin) / (x1 - x0)
    height = 2 * margin + scale * (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_WIDTH:g} {height:.6g}">',
        f'<rect width="{_SVG_WIDTH:g}" height="{height:.6g}" fill="white"/>',
    ]
    vertex_fmt = f"%.{_SVG_DECIMALS}f,%.{_SVG_DECIMALS}f"
    for i, item in enumerate(items):
        pts = np.asarray(item["points"], dtype=float).reshape(-1, 2)
        pixels = np.empty_like(pts)
        pixels[:, 0] = margin + (pts[:, 0] - x0) * scale
        pixels[:, 1] = height - margin - (pts[:, 1] - y0) * scale
        cells = np.rint(pixels * 10**_SVG_DECIMALS)
        fresh = np.ones(len(cells), dtype=bool)
        fresh[1:] = (cells[1:] != cells[:-1]).any(axis=1)
        pixels = pixels[fresh]
        if len(pixels) < 2:
            continue
        stroke = item.get("stroke") or _PALETTE[i % len(_PALETTE)]
        stroke_width = item.get("width", 1.5)
        dash = item.get("dash")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join([vertex_fmt] * len(pixels)) % tuple(pixels.ravel().tolist())
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}"'
            f' stroke-width="{stroke_width:g}"{dash_attr}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


write_svg = write_text

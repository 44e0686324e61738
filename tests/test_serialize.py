"""CSV and SVG emission: exact round-trips and well-formed documents."""

import csv
import io
import json
import math
import sys
import xml.etree.ElementTree as ET
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpaths import cli, curves, serialize
from qpaths.errors import InvalidArgument
from qpaths.exact import StartSequence, partition_poly
from qpaths.profile import StartDensity
from qpaths.serialize import (
    ArrayRows,
    IndexedRows,
    emit_csv,
    format_cell,
    parse_cell,
    read_csv,
    render_svg,
    write_csv,
    write_svg,
    write_text,
)


def test_cell_formats():
    assert format_cell(7) == "7"
    assert format_cell(-3) == "-3"
    assert format_cell(Fraction(22, 7)) == "22/7"
    assert format_cell(0.5) == "0.5"
    assert format_cell("branch") == "branch"
    with pytest.raises(InvalidArgument):
        format_cell(True)
    with pytest.raises(InvalidArgument):
        format_cell(object())


def test_cell_parses():
    assert parse_cell("7") == 7 and isinstance(parse_cell("7"), int)
    assert parse_cell("22/7") == Fraction(22, 7)
    assert parse_cell("0.5") == 0.5
    assert parse_cell("right") == "right"
    assert parse_cell("a/b") == "a/b"


def test_integral_float_cells_read_back_as_ints():
    # An integral float is written in integer form, so it reads back as an
    # int of the same value: a float table's H = 1.0 as 1, and -0.0 as 0,
    # which loses the sign of the zero.
    assert format_cell(1.0) == "1"
    assert parse_cell(format_cell(1.0)) == 1 and type(parse_cell(format_cell(1.0))) is int
    assert format_cell(-0.0) == "-0"
    again = parse_cell(format_cell(-0.0))
    assert again == 0 and type(again) is int and math.copysign(1.0, again) == 1.0


@pytest.mark.parametrize("text", ["1_000", " 7", "7 ", "\u0663", "Infinity", "-infinity",
                                  "1_0.5", "1E5", ".5", "1/0", "1/ 2", "1_0/3"])
def test_text_cells_that_int_or_float_would_read_stay_text(text):
    assert parse_cell(format_cell(text)) == text


@pytest.mark.parametrize("value", [math.inf, -math.inf, 5e-324, -1e308])
def test_extreme_float_cells_round_trip(value):
    assert parse_cell(format_cell(value)) == value


def test_nan_cell_round_trips():
    assert math.isnan(parse_cell(format_cell(math.nan)))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_cells_round_trip_bit_exact(value):
    again = parse_cell(format_cell(value))
    assert isinstance(again, (int, float))
    assert float(again) == value
    if value != 0.0:  # integral cells parse back as ints, so -0.0 becomes 0
        assert math.copysign(1.0, float(again)) == math.copysign(1.0, value)


@given(st.fractions())
def test_rational_cells_round_trip_exact(value):
    cell = format_cell(value)
    again = parse_cell(cell)
    assert again == value


@pytest.mark.parametrize(
    "value",
    [7**9000, -(7**9000), Fraction(7**9000, 10**9000), Fraction(-1, 10**5000)],
    ids=["int", "negative_int", "fraction", "negative_fraction"],
)
def test_cells_beyond_the_int_string_digit_cap_round_trip(value):
    cell = format_cell(value)
    assert len(cell) > 5000
    again = parse_cell(cell)
    assert again == value and type(again) is type(value)


def test_emit_csv_layout():
    text = emit_csv(["ell", "H"], [(0, Fraction(1, 1)), (3, Fraction(2, 7))])
    assert text == "ell,H\n0,1/1\n3,2/7\n"
    assert "\r" not in text


def csv_writer_emit_csv(header, rows) -> str:
    """The per-cell csv.writer emitter that emit_csv replaced, kept as its oracle."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()


_EXTREME_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]
_CELLS = st.one_of(
    st.text(alphabet='ab7,"\r\n '),
    st.text(),
    st.integers(),
    st.sampled_from([7**9000, -(7**9000)]),
    st.fractions(),
    st.floats(),
    st.sampled_from(_EXTREME_FLOATS),
    st.floats().map(np.float64),
)


@given(st.lists(st.lists(_CELLS, max_size=5), max_size=8))
@example([[""]])
@example([["", ""], [""], []])
@example([["a,b", 1, 0.5], ["a\rb", 1, 0.5], ["a\nb", 1, 0.5], ['a"b', 1, 0.5], ["ab", 1, 0.5]])
@example([[7**9000, 1.0], [3, 1.0], [Fraction(1, 3), 1.0], [np.float64(0.1), 1.0], [0.1, 1.0]])
# An int past the int-to-str digit cap among ints and floats.
@example([[7**9000, 1.0], [3, 2.0]])
def test_emit_csv_matches_the_csv_writer_oracle(rows):
    header = ["a", "b,c", ""]
    assert emit_csv(header, rows) == csv_writer_emit_csv(header, rows)


@given(st.lists(st.floats(), min_size=1, max_size=30),
       st.sampled_from(["right", "a,b", 'q"x', "50%", "%s", ""]))
def test_array_rows_match_the_oracle_rows(values, label):
    v = np.array(values)
    cells = np.column_stack([v, -v, v[::-1]])
    rows = [(label, *row) for row in cells.tolist()]
    header = ["branch", "t", "X", "Y"]
    assert emit_csv(header, [ArrayRows(cells, (label,))]) == csv_writer_emit_csv(header, rows)


def test_array_rows_span_blocks_and_mix_with_rows():
    ints = np.arange(3 * 5000, dtype=np.int64).reshape(-1, 3) - 7000
    floats = np.linspace(-1.0, 1.0, 2 * 4100).reshape(-1, 2) ** 3
    items = [(1, "a"), ArrayRows(ints), (Fraction(1, 3), 0.5), ArrayRows(floats, ("x", 7))]
    rows = [(1, "a"), *ints.tolist(), (Fraction(1, 3), 0.5),
            *(("x", 7, *row) for row in floats.tolist())]
    assert emit_csv(["c"], items) == csv_writer_emit_csv(["c"], rows)


def test_rows_past_one_block_match_the_oracle():
    rows = [(i, i / 7.0, "left" if i % 3 else "right") for i in range(5000)]
    rows[4321] = (7**9000, 0.5, "right")
    assert emit_csv(["a", "b", "c"], rows) == csv_writer_emit_csv(["a", "b", "c"], rows)


def _z_coeffs(starts) -> tuple:
    return partition_poly(StartSequence(starts)).coeffs


# 21 paths: a zero prefix of E = 4 200 rows, over two blocks, then 1 541 coefficients.
_LONG_Z = _z_coeffs(range(0, 41, 2))
_HUGE = 7**6000  # 5 071 digits


@pytest.mark.parametrize("values", [
    (),
    (7,),
    (0,),
    _z_coeffs((0, 2, 3, 7)),
    _LONG_Z,
    (0, 1, _HUGE, 3),
    (0,) * 2047 + (_HUGE,) + (5,) * 3000,
    (*range(2100), 0.5, *range(3000)),
    (*(i / 7 for i in range(2048)), Fraction(1, 3), -0.0, math.inf),
    array("q", [3, -1, 2**62, 0] * 1000),  # an area series, as `qpaths sample` writes it
], ids=["empty", "one_row", "one_zero", "z_n3", "z_past_one_block", "huge_int",
        "huge_int_ending_a_block", "float_in_the_second_block", "fraction_after_a_block",
        "int64_array"])
def test_indexed_rows_match_the_oracle_rows(values):
    # The default digit cap, so the huge ints fall back to format_cell.
    old_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        header = ["degree", "coefficient"]
        expected = csv_writer_emit_csv(header, enumerate(values))
        assert emit_csv(header, [IndexedRows(values)]) == expected
        assert emit_csv(header, [(-1, "x"), IndexedRows(values), ArrayRows(np.ones((1, 2)))]) == (
            csv_writer_emit_csv(header, [(-1, "x"), *enumerate(values), (1.0, 1.0)]))
    finally:
        sys.set_int_max_str_digits(old_cap)
    assert _LONG_Z[:4200] == (0,) * 4200 and _LONG_Z[4200] == 1 and len(_LONG_Z) == 5741


@given(st.lists(_CELLS, max_size=40))
@example([7**9000, 1, 2])
@example([1, 2, np.float64(0.5)])
def test_indexed_rows_of_any_cells_match_the_oracle_rows(values):
    assert emit_csv(["k", "v"], [IndexedRows(values)]) == csv_writer_emit_csv(["k", "v"], enumerate(values))


@pytest.mark.parametrize("bad", [True, object(), np.int64(3)], ids=["bool", "object", "numpy_int"])
def test_indexed_rows_refuse_cells_without_a_rendering(bad):
    with pytest.raises(InvalidArgument):
        emit_csv(["k", "v"], [IndexedRows((1, 2, bad))])


@pytest.mark.parametrize("cells, labels", [
    (np.array([[True, False]]), ()),
    (np.array([["a", "b"]]), ()),
    (np.zeros(3), ()),
    (np.zeros((2, 0)), ()),
    (np.zeros((2, 2)), (True,)),
], ids=["bool", "text", "1-d", "no_columns", "bool_label"])
def test_array_rows_without_a_rendering_are_rejected(cells, labels):
    with pytest.raises(InvalidArgument):
        emit_csv(["a", "b"], [ArrayRows(cells, labels)])


@pytest.mark.parametrize("bad", [True, object()], ids=["bool", "object"])
def test_emit_csv_rejects_cells_without_a_rendering(bad):
    with pytest.raises(InvalidArgument):
        emit_csv(["a", "b"], [(1.0, 2), (1.0, bad)])


def test_csv_file_round_trip(tmp_path):
    path = str(tmp_path / "table.csv")
    rows = [(1, 0.1, Fraction(3, 8), "right"), (2, -1e-300, Fraction(-5, 2), "left")]
    write_csv(path, ["a", "b", "c", "d"], rows)
    raw = open(path, "rb").read()
    assert b"\r" not in raw  # LF endings regardless of platform
    with open(path, encoding="utf-8", newline="") as fh:
        header, got = read_csv(fh.read())
    assert header == ["a", "b", "c", "d"]
    assert got == [list(r) for r in rows]


@pytest.mark.parametrize("write, error", [
    (lambda path: write_csv(path, ["a", "b"], [ArrayRows(np.zeros((3000, 2))), (1.0, object())]),
     InvalidArgument),
    (lambda path: write_csv(path, ["a", "b"], [ArrayRows(np.zeros((3000, 2))),
                                               ArrayRows(np.zeros((2, 2)), (True,))]),
     InvalidArgument),
    # A lone surrogate has no UTF-8 form.
    (lambda path: write_text(path, "a,b\n\ud800"), UnicodeEncodeError),
], ids=["object_cell", "bool_label", "text"])
def test_write_csv_that_raises_leaves_the_file_as_it_was(tmp_path, write, error):
    # write_csv and write_text share one rule: a failed write leaves the
    # target as it was, and no partial file behind.
    path = tmp_path / "table.csv"
    with pytest.raises(error):
        write(str(path))
    assert list(tmp_path.iterdir()) == []
    path.write_text("a,b\n1,2\n")
    with pytest.raises(error):
        write(str(path))
    assert path.read_text() == "a,b\n1,2\n"
    assert list(tmp_path.iterdir()) == [path]


def test_read_csv_rejects_empty():
    with pytest.raises(InvalidArgument):
        read_csv("")


def test_read_csv_skips_blank_lines():
    header, rows = read_csv("x,y\n1,2\n\n3,4\n")
    assert header == ["x", "y"]
    assert rows == [[1, 2], [3, 4]]


def _svg_doc(items, **kw):
    kw.setdefault("x_range", (0.0, 3.0))
    kw.setdefault("y_range", (0.0, 1.0))
    return render_svg(items, **kw)


def test_svg_is_valid_xml_with_expected_polylines():
    items = [
        {"points": [(0, 0), (1, 0.5), (2, 0.25)]},
        {"points": [(0, 1), (3, 0)], "stroke": "#000000", "dash": "4 2"},
        {"points": [(1, 1)]},  # a lone point draws nothing
    ]
    doc = _svg_doc(items)
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    assert polylines[1].get("stroke") == "#000000"
    assert polylines[1].get("stroke-dasharray") == "4 2"
    for el in polylines:
        assert el.get("fill") == "none"
        for pair in el.get("points").split():
            x, y = pair.split(",")
            float(x), float(y)


def test_svg_viewbox_fixed_by_ranges():
    # Two documents with different contents but equal ranges must share a
    # viewBox, so curves rendered separately overlay consistently.
    a = _svg_doc([{"points": [(0, 0), (1, 1)]}])
    b = _svg_doc([{"points": [(2, 0.2), (3, 0.8)]}])
    box = ET.fromstring(a).get("viewBox")
    assert box == ET.fromstring(b).get("viewBox")
    assert box.startswith("0 0 720 ")


def test_svg_y_axis_points_up():
    doc = _svg_doc([{"points": [(0.0, 0.0), (0.0, 1.0)]}])
    polyline = [el for el in ET.fromstring(doc).iter() if el.tag.endswith("polyline")][0]
    (x0, y0), (x1, y1) = [
        tuple(map(float, pair.split(","))) for pair in polyline.get("points").split()
    ]
    assert x0 == x1
    assert y1 < y0  # larger model y lands higher on the canvas (smaller pixel y)


def test_svg_range_validation(tmp_path):
    with pytest.raises(InvalidArgument):
        render_svg([], x_range=(0.0, 0.0), y_range=(0.0, 1.0))
    with pytest.raises(InvalidArgument):
        render_svg([], x_range=(0.0, 1.0), y_range=(2.0, 1.0))
    path = str(tmp_path / "plot.svg")
    write_svg(path, _svg_doc([{"points": [(0, 0), (1, 1)]}]))
    ET.fromstring(open(path).read())


def _svg_cell(v):
    """The 0.01-px cell of a pixel coordinate; a non-finite one keys by
    itself, so nan never equals a cell and inf equals inf, as in numpy."""
    key = 100 * v
    return round(key) if math.isfinite(key) else key


def per_point_render_svg(items, *, x_range, y_range) -> str:
    """The per-point render_svg that the array one replaced, kept as its
    oracle: a vertex in the 0.01-px cell of the vertex before it is dropped."""
    x0, x1 = float(x_range[0]), float(x_range[1])
    y0, y1 = float(y_range[0]), float(y_range[1])
    margin = 20.0
    scale = (720 - 2 * margin) / (x1 - x0)
    height = 2 * margin + scale * (y1 - y0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 720 {height:.6g}">',
        f'<rect width="720" height="{height:.6g}" fill="white"/>',
    ]
    palette = ("#1f6f8b", "#c1443c", "#3a7d44", "#8a4f9e", "#b8860b", "#555555")
    for i, item in enumerate(items):
        pts, cell = [], None
        for p in item["points"]:
            x, y = margin + (p[0] - x0) * scale, height - margin - (p[1] - y0) * scale
            prev, cell = cell, (_svg_cell(x), _svg_cell(y))
            if prev is None or prev[0] != cell[0] or prev[1] != cell[1]:
                pts.append((x, y))
        if len(pts) < 2:
            continue
        stroke = item.get("stroke") or palette[i % len(palette)]
        dash = item.get("dash")
        stroke_width = item.get("width", 1.5)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}"'
            f' stroke-width="{stroke_width:g}"{dash_attr}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_svg_matches_the_per_point_oracle():
    # -0.0 inputs, pixels just below 0 that print as -0.00, int points,
    # an array, and one-point and empty items that draw nothing.
    edge = 20.0 / (680.0 / 3.0) + 1e-7  # 20 pixels of margin and a little
    items = [
        {"points": [(-0.0, -0.0), (-edge, 1.0 + edge), (3, 0)]},
        {"points": [(0, 1), (1, 0), (2, 1)], "stroke": "#000000", "width": 0.6, "dash": "4 3"},
        {"points": np.array([[0.1, 0.2], [1.0 / 3.0, 2.0 / 3.0], [2.5, 0.0625]])},
        {"points": [(1, 1)]},
        {"points": []},
    ]
    assert _svg_doc(items) == per_point_render_svg(items, x_range=(0.0, 3.0), y_range=(0.0, 1.0))


def _polyline_points(doc):
    return [el.get("points").split() for el in ET.fromstring(doc).iter() if el.tag.endswith("polyline")]


def test_a_one_pixel_segment_keeps_at_most_one_vertex_per_cell():
    # 10 000 points along a 1-px segment, across and down, span 101 cells.
    kw = {"x_range": (0.0, 3.0), "y_range": (0.0, 1.0)}
    px = 3.0 / 680.0  # one pixel in model units
    along = np.linspace(0.0, px, 10_000)
    items = [{"points": np.column_stack([1.0 + along, np.full_like(along, 0.5)])},
             {"points": np.column_stack([np.full_like(along, 1.5), 0.25 + along])}]
    doc = render_svg(items, **kw)
    assert doc == per_point_render_svg(items, **kw)
    for points in _polyline_points(doc):
        assert 2 <= len(points) <= 101


def test_an_item_within_one_cell_draws_nothing():
    # At one pixel a unit, model x = 80 is pixel x = 100: all of these
    # points fall in its cell, and so does y.
    kw = {"x_range": (0.0, 680.0), "y_range": (0.0, 100.0)}
    dot = [(80.0 + d, 50.0 - d) for d in (0.0, 0.004, -0.004, 0.001, 0.0)]
    doc = render_svg([{"points": dot}, {"points": [(0.0, 0.0), (1.0, 1.0)]}], **kw)
    assert _polyline_points(doc) == [["20.00,120.00", "21.00,119.00"]]
    assert render_svg([{"points": dot}], **kw) == per_point_render_svg([{"points": dot}], **kw)


_RUN_CELLS = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.5]


@st.composite
def repeating_arrays(draw):
    """Float arrays in runs of equal rows, drawn from a few rows with 0.0
    and -0.0, nan and inf cells, in float64 or float32; a lead of 2 040
    copies of the first row puts the runs across the 2 048-row block."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    width = draw(st.integers(1, 4))
    finite = st.floats(width=32) if dtype is np.float32 else st.floats(-1e300, 1e300)
    cell = st.one_of(st.sampled_from(_RUN_CELLS), finite)
    pool = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=4))
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 5)),
                         min_size=1, max_size=12))
    rows = [pool[i] for i, count in runs for _ in range(count)]
    rows = [rows[0]] * draw(st.sampled_from([0, 2040])) + rows
    cells = np.array(rows, dtype=dtype)
    if draw(st.booleans()):
        cells[:, 0] = np.arange(len(cells))  # a first column that moves on every row, as t does
    return cells


@given(repeating_arrays())
@settings(max_examples=150, deadline=None)
@example(np.array([[1.0, 0.0, 0.0], [2.0, -0.0, 0.0], [3.0, -0.0, 0.0], [4.0, 0.0, -0.0]]))
@example(np.array([[0.0, math.nan], [0.0, math.nan], [1.0, math.inf], [1.0, math.inf]], dtype=np.float32))
def test_repeated_rows_match_the_oracles(cells):
    # A row that repeats the bits of the row before reuses its text, and a
    # vertex in the cell of the one before is dropped; the documents stay
    # those of the per-cell and per-point emitters.
    header = ["branch"] + [f"c{j}" for j in range(cells.shape[1])]
    rows = [("right", *row) for row in cells.tolist()]
    assert emit_csv(header, [ArrayRows(cells, ("right",))]) == csv_writer_emit_csv(header, rows)
    xy = cells[:, -2:] if cells.shape[1] > 1 else np.repeat(cells, 2, axis=1)
    items = [{"points": xy}, {"points": xy[::-1], "stroke": "#000000"}]
    as_tuples = [{**item, "points": [tuple(p) for p in item["points"].tolist()]} for item in items]
    kw = {"x_range": (0.0, 3.0), "y_range": (0.0, 1.0)}
    assert render_svg(items, **kw) == per_point_render_svg(as_tuples, **kw)


@pytest.mark.parametrize("segments, jumps, base, t_values", [
    ([[1 / 3, 2.0], [1 / 3, 1.0], [1 / 3, 2.0]], [], 1e-2, [4e-4, 2.0]),
    ([[1 / 3, 1.0], [2 / 3, 1.0]], [[1 / 3, 1.0]], 1e3, [2e6, 0.5]),
], ids=["FILLED_MID@1e-2", "HEX_LIKE@1e3"])
def test_arctic_outputs_match_the_row_route(tmp_path, monkeypatch, segments, jumps, base, t_values):
    doc = {"model": {"scaled": {"segments": segments, "jumps": jumps, "base": base}},
           "task": {"samples": 300, "t_values": t_values}}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    rendered = []

    def render(items, **kw):
        rendered.append((items, kw))
        return render_svg(items, **kw)

    monkeypatch.setattr(serialize, "render_svg", render)
    out = tmp_path / "out"
    assert cli.main(["arctic", "--config", str(cfg), "--out", str(out), "--svg"]) == 0
    d = StartDensity([tuple(s) for s in segments], jumps=[tuple(j) for j in jumps])
    rows = [(dom.branch, t, x, y)
            for dom in curves.t_domains(d, base)
            for t, x, y in curves.arctic_curve(d, base, dom, n_samples=300).points]
    expected = csv_writer_emit_csv(["branch", "t", "X", "Y"], rows).encode()
    assert (out / "arctic.csv").read_bytes() == expected
    (items, kw), = rendered
    # The row route handed render_svg lists of float (X, Y) tuples.
    as_tuples = [{**item, "points": [tuple(map(float, p)) for p in np.asarray(item["points"]).tolist()]}
                 for item in items]
    assert (out / "arctic.svg").read_bytes() == per_point_render_svg(as_tuples, **kw).encode()

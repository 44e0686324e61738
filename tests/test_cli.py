"""End-to-end command-line runs against temporary directories."""

import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from qpaths import cli, curves
from qpaths.errors import NumericalFailure, QpathsError
from qpaths.exact import StartSequence, dual_sequence, partition_det, partition_poly
from qpaths.profile import StartDensity
from qpaths.qpoly import QPolynomial
from qpaths.serialize import load_csv, parse_cell

FINITE = {
    "model": {"finite": {"sequence": [0, 1, 3], "q": "7/10"}},
    "task": {"sweeps": 2000, "seed": 11},
}

SCALED_UNIFORM = {
    "model": {"scaled": {"segments": [[1.0, 2.0]], "base": 3.0}},
    "task": {"samples": 40, "t_values": [18.0, -20.0]},
}

SCALED_GAPPED = {
    "model": {
        "scaled": {
            "segments": [[0.5, 2.0], [0.5, 2.0]],
            "jumps": [[0.5, 1.0]],
            "base": 3.0,
        }
    }
}


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(tmp_path, doc, command, *extra):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    rc = cli.main([command, "--config", cfg, "--out", str(out), *extra])
    return rc, out


def test_exact_writes_tables(tmp_path):
    rc, out = run_cli(tmp_path, FINITE, "exact")
    assert rc == 0

    header, rows = load_csv(str(out / "partition.csv"))
    assert header == ["degree", "coefficient"]
    z = partition_det(StartSequence((0, 1, 3)))
    assert rows == [[i, c] for i, c in enumerate(z.coeffs)]

    header, rows = load_csv(str(out / "one_point.csv"))
    assert header == ["ell", "H"]
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    assert rows[0][1] == Fraction(1)  # every configuration exits at or beyond 0
    values = [r[1] for r in rows]
    assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))

    header, rows = load_csv(str(out / "one_point_dual.csv"))
    assert header == ["ell", "H_dual"]
    assert [r[0] for r in rows] == [2, 3, 4, 5]

    summary = json.loads((out / "exact_summary.json").read_text())
    assert summary["sequence"] == [0, 1, 3]
    assert summary["reversal_pass"] is True
    assert summary["reversal_residual"] == 0
    # Z(7/10) for starts (0, 1, 3): q^5 + q^6 + q^7, checked by hand.
    assert summary["partition_at_q"] == "3680733/10000000"


def test_exact_float_partition_out_of_range(tmp_path, capsys):
    # Z(10^6) for these starts is about 10^360, beyond the float range.
    doc = {"model": {"finite": {"sequence": [0, 2, 4, 6, 8], "q": {"base": 1e6, "n": 1}}}}
    rc, out = run_cli(tmp_path, doc, "exact")
    assert rc == 2
    assert "outside the float range" in capsys.readouterr().err


def test_exact_rational_q_with_large_values(tmp_path, capsys):
    # Z(7/10) at 21 starts has a denominator of 10^5740, past the
    # 4300-digit cap on int <-> str conversion.
    seq = StartSequence(tuple(range(0, 41, 2)))
    doc = {"model": {"finite": {"sequence": list(seq), "q": "7/10"}}}
    rc, out = run_cli(tmp_path, doc, "exact")
    assert rc == 0
    # The value goes to the summary only; stdout is a few short lines
    # besides the output directory.
    assert len(capsys.readouterr().out.replace(str(out), "").encode()) < 200
    summary = json.loads((out / "exact_summary.json").read_text())
    assert parse_cell(summary["partition_at_q"]) == partition_poly(seq)(Fraction(7, 10))


@pytest.mark.parametrize(
    "sequence, base", [([0, 5], 1e60), ([0, 1, 40], 1e-5)]
)
def test_exact_float_residue_sums_out_of_range(tmp_path, capsys, sequence, base):
    doc = {"model": {"finite": {"sequence": sequence, "q": {"base": base, "n": 1}}}}
    rc, out = run_cli(tmp_path, doc, "exact")
    assert rc == 2
    err = capsys.readouterr().err
    assert "residue sum" in err and "Traceback" not in err


def test_exact_float_partition_in_range(tmp_path):
    doc = {"model": {"finite": {"sequence": [0, 2, 4, 6, 8], "q": {"base": 3, "n": 4}}}}
    rc, out = run_cli(tmp_path, doc, "exact")
    assert rc == 0
    summary = json.loads((out / "exact_summary.json").read_text())
    z = partition_det(StartSequence((0, 2, 4, 6, 8)))
    expected = float(z(Fraction(3**0.25)))
    assert float(summary["partition_at_q"]) == pytest.approx(expected, rel=1e-12)
    assert summary["reversal_pass"] is True


def test_reversal_check_counts_mismatched_degrees():
    seq = StartSequence((0, 2, 5))
    z = partition_poly(seq)
    z_dual = partition_poly(dual_sequence(seq))
    assert cli._reversal_check(seq, z, z_dual) == (True, 0)
    # Moving one unit of weight to another degree breaks two coefficients.
    k = z.degree
    broken = z - QPolynomial.monomial(k) + QPolynomial.monomial(k + 1)
    assert cli._reversal_check(seq, broken, z_dual) == (False, 2)


def test_verify_duality_checks_the_dual_determinant(tmp_path, monkeypatch):
    # verify's partition_duality compares the product form of Z against the
    # determinant of the dual sequence, so a fault in the latter must show.
    real = cli.partition_det
    dual = dual_sequence(StartSequence((0, 2, 5)))

    def broken(seq):
        z = real(seq)
        return z + QPolynomial.monomial(z.degree) if seq == dual else z

    monkeypatch.setattr(cli, "partition_det", broken)
    rc, out = run_cli(tmp_path, FINITE, "verify")
    assert rc == 0
    checks = {c["name"]: c for c in json.loads((out / "verify.json").read_text())["checks"]}
    assert checks["partition_duality"] == {
        "name": "partition_duality", "pass": False, "residual": 1.0, "tolerance": 0.0
    }
    assert all(c["pass"] for name, c in checks.items() if name != "partition_duality")


@pytest.mark.parametrize("where", ["flag", "file"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, where):
    doc = {"model": FINITE["model"], "task": {"sweeps": 10, "seed": -5 if where == "file" else 0}}
    extra = ("--seed", "-5") if where == "flag" else ()
    rc, out = run_cli(tmp_path, doc, "sample", *extra)
    assert rc == 1
    assert capsys.readouterr().err == "config error: task.seed: expected an integer >= 0, got -5\n"
    assert not (out / "area_series.csv").exists()


def test_sample_outputs_and_determinism(tmp_path):
    rc, out = run_cli(tmp_path, FINITE, "sample")
    assert rc == 0
    header, density = load_csv(str(out / "density.csv"))
    assert header == ["x", "y", "count"]
    assert sum(r[2] for r in density) > 0
    header, series = load_csv(str(out / "area_series.csv"))
    assert header == ["sweep", "area"]
    assert len(series) == 2000

    series_first = (out / "area_series.csv").read_bytes()
    density_first = (out / "density.csv").read_bytes()
    rc2, _ = run_cli(tmp_path, FINITE, "sample")  # same config, same seed
    assert rc2 == 0
    assert (out / "area_series.csv").read_bytes() == series_first
    assert (out / "density.csv").read_bytes() == density_first
    rc3, _ = run_cli(tmp_path, FINITE, "sample", "--seed", "12")
    assert rc3 == 0
    assert (out / "area_series.csv").read_bytes() != series_first


def test_sample_count_override(tmp_path):
    rc, out = run_cli(tmp_path, FINITE, "sample", "--samples", "50")
    assert rc == 0
    _, series = load_csv(str(out / "area_series.csv"))
    assert len(series) == 50


def test_arctic_branches_and_svg(tmp_path):
    rc, out = run_cli(tmp_path, SCALED_UNIFORM, "arctic", "--svg")
    assert rc == 0
    header, rows = load_csv(str(out / "arctic.csv"))
    assert header == ["branch", "t", "X", "Y"]
    branches = {r[0] for r in rows}
    assert branches == {"right", "left"}
    for _, t, x, y in rows[::7]:
        assert isinstance(t, (int, float)) and isinstance(x, (int, float))
        assert -0.5 <= y <= 1.5
    ET.fromstring((out / "arctic.svg").read_text())


@pytest.mark.parametrize("base", [1e-9, 1e12])
def test_arctic_extreme_bases(tmp_path, base):
    doc = {"model": {"scaled": dict(SCALED_GAPPED["model"]["scaled"], base=base)}}
    rc, out = run_cli(tmp_path, doc, "arctic")
    assert rc == 0
    _, rows = load_csv(str(out / "arctic.csv"))
    assert {"right", "left"} <= {r[0] for r in rows}


def test_arctic_base_beyond_float_range(tmp_path, capsys):
    # qq**alpha(1) = 1e450 overflows before any branch is swept.
    doc = {"model": {"scaled": dict(SCALED_GAPPED["model"]["scaled"], base=1e150)}}
    rc, _ = run_cli(tmp_path, doc, "arctic")
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


def test_arctic_right_leg_stops_at_the_overflow_bound(tmp_path):
    # At 1e150 the right leg may run only to tau = 700 / ln(qq) = 2.03.
    doc = dict(SCALED_UNIFORM)
    doc["model"] = {"scaled": {"segments": [[1.0, 2.0]], "base": 1e150}}
    rc, out = run_cli(tmp_path, doc, "arctic")
    assert rc == 0
    _, rows = load_csv(str(out / "arctic.csv"))
    right = [row for row in rows if row[0] == "right"]
    assert len(right) >= 40
    density = StartDensity([(1.0, 2.0)])
    for _, t, bx, by in right:
        x = curves.x_of_t(density, 1e150, t)
        assert abs(x * 1e150**by + (1.0 - x) / t * 1e150**bx - 1.0) <= 1e-10


@pytest.mark.parametrize("base", [math.exp(352.0), 1e-300])
def test_arctic_uniform_base_beyond_float_range(tmp_path, capsys, base):
    # e**352: 2 * 352 = 704 >= 700, so no right-branch t is representable.
    # 1e-300: the pole qq**2 underflows to 0.
    doc = {"model": {"scaled": {"segments": [[1.0, 2.0]], "base": base}}}
    rc, _ = run_cli(tmp_path, doc, "arctic")
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


def test_arctic_window_selection(tmp_path):
    doc = dict(SCALED_GAPPED)
    doc["task"] = {"branch": "window:1", "samples": 24}
    rc, out = run_cli(tmp_path, doc, "arctic")
    assert rc == 0
    _, rows = load_csv(str(out / "arctic.csv"))
    assert rows and {r[0] for r in rows} == {"gap_window_1"}

    doc["task"] = {"branch": "window:9", "samples": 24}
    cfg = write_config(tmp_path, doc, "bad.json")
    assert cli.main(["arctic", "--config", cfg, "--out", str(tmp_path / "o2")]) == 1


def test_limits_table(tmp_path):
    rc, out = run_cli(tmp_path, SCALED_GAPPED, "limits")
    assert rc == 0
    header, rows = load_csv(str(out / "limits.csv"))
    assert header == ["limit", "part", "vertex", "X", "Y"]
    parts = {(r[0], r[1]) for r in rows}
    assert ("q_to_0", "main") in parts and ("q_to_inf", "closing") in parts
    assert ("q_to_inf", "gap_window_1") in parts

    def tent(which):
        pts = [(r[3], r[4]) for r in rows if r[0] == which and r[1] == "gap_window_1"]
        return pts

    assert tent("q_to_inf") == [(1, 0), (1, Fraction(1, 2)), (2, Fraction(1, 2)), (2, 0)]
    assert tent("q_to_0") == [
        (1, 0),
        (Fraction(3, 2), Fraction(1, 2)),
        (Fraction(5, 2), Fraction(1, 2)),
        (2, 0),
    ]


def test_verify_reports_all_pass(tmp_path):
    rc, out = run_cli(tmp_path, FINITE, "verify")
    assert rc == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["all_pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert "partition_det_vs_product" in names
    assert "partition_poly_vs_det" in names
    assert "envelope_residual" in names
    for check in report["checks"]:
        assert check["residual"] <= check["tolerance"]


def test_config_errors_reported_together(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": {"finite": {"sequence": [1, 1], "q": -2}},
            "task": {"branch": "middle"},
        },
    )
    rc = cli.main(["exact", "--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err
    lines = [l for l in err.splitlines() if l.startswith("config error: ")]
    assert len(lines) >= 3  # sequence, q and branch problems in one run


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["exact", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_model_kind_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, FINITE)
    rc = cli.main(["arctic", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "scaled model" in capsys.readouterr().err


def test_exit_code_two_on_numerical_failure(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, FINITE)

    def boom(cfg, args):
        raise NumericalFailure("synthetic")

    monkeypatch.setitem(cli._COMMANDS, "exact", boom)
    assert cli.main(["exact", "--config", cfg]) == 2
    assert "numerical failure" in capsys.readouterr().err

    def softer(cfg, args):
        raise QpathsError("synthetic")

    monkeypatch.setitem(cli._COMMANDS, "exact", softer)
    assert cli.main(["exact", "--config", cfg]) == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qpaths.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("exact", "sample", "arctic", "limits", "verify"):
        assert name in proc.stdout

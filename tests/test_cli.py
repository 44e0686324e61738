"""End-to-end command-line runs against temporary directories."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from qpaths import cli, curves, exact, sampler, serialize
from qpaths.errors import NumericalFailure, QpathsError
from qpaths.exact import StartSequence, dual_sequence, partition_det, partition_poly
from qpaths.profile import StartDensity
from qpaths.qpoly import QPolynomial
from qpaths.serialize import parse_cell

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

# Slope-1 runs at both ends (edge windows 1 and 3) around a jump (the
# internal gap window 2).
SCALED_HEX_LIKE = {
    "model": {
        "scaled": {
            "segments": [[1 / 3, 1.0], [2 / 3, 1.0]],
            "jumps": [[1 / 3, 1.0]],
            "base": 3.0,
        }
    }
}


def load_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return serialize.read_csv(fh.read())


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
    seq = StartSequence((0, 1, 3))
    assert all(h == exact.one_point_exit_dual(seq, ell, Fraction(7, 10)) for ell, h in rows)

    summary = json.loads((out / "exact_summary.json").read_text())
    assert summary["sequence"] == [0, 1, 3]
    assert summary["reversal_pass"] is True
    assert summary["reversal_residual"] == 0
    # Z(7/10) for starts (0, 1, 3): q^5 + q^6 + q^7, checked by hand.
    assert summary["partition_at_q"] == "3680733/10000000"


def test_exact_dual_table_at_a_float_q(tmp_path):
    # The dual table is read off the one-point table; at a float q it holds
    # the per-ell values bit for bit.
    doc = {"model": {"finite": {"sequence": [0, 2, 3, 7], "q": {"base": 3, "n": 4}}}}
    rc, out = run_cli(tmp_path, doc, "exact")
    assert rc == 0
    seq, q = StartSequence((0, 2, 3, 7)), 3.0 ** (1.0 / 4)
    _, rows = load_csv(str(out / "one_point_dual.csv"))
    assert [r[0] for r in rows] == list(range(seq.n, seq.top + seq.n + 1))
    assert [h for _, h in rows] == [exact.one_point_exit_dual(seq, ell, q) for ell, _ in rows]


def test_exact_float_partition_out_of_range(tmp_path, capsys):
    # Z(10^6) for (0, 2, 4, 6, 8) is about 10^360, beyond the float range;
    # Z = q^5 for (0, 1, 2) is 1e-310 at q = 1e-62, below the least normal
    # double.
    for case, sequence, q in ((tmp_path, [0, 2, 4, 6, 8], {"base": 1e6, "n": 1}),
                              (tmp_path / "subnormal", [0, 1, 2], {"base": 1e-124, "n": 2})):
        case.mkdir(exist_ok=True)
        rc, out = run_cli(case, {"model": {"finite": {"sequence": sequence, "q": q}}}, "exact")
        assert rc == 2
        assert "outside the float range" in capsys.readouterr().err
        assert not out.exists()


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
    "sequence, base", [([0, 5], 1e60), ([0, 1, 40], 1e-5), ([0, 5], 1e-60)]
)
def test_exact_float_residue_sums_out_of_range(tmp_path, capsys, sequence, base):
    # The residue sums run at a base above 1: on (0, 1, 40) at 1e-5 they
    # leave the doubles at 1e5, and the failing command writes none of its
    # files; on (0, 5) at 1e+-60 they stay inside, and the tables hold the
    # exact ones at the float's binary value to a few units of 1e-16.
    doc = {"model": {"finite": {"sequence": sequence, "q": {"base": base, "n": 1}}}}
    rc, out = run_cli(tmp_path, doc, "exact")
    if sequence == [0, 1, 40]:
        assert rc == 2
        err = capsys.readouterr().err
        assert "residue sum" in err and "Traceback" not in err
        assert not out.exists()
        return
    assert rc == 0
    seq, q = StartSequence(sequence), Fraction(base)
    _, rows = load_csv(str(out / "one_point.csv"))
    assert [r[0] for r in rows] == list(range(seq.top + 1))
    assert all(abs(h - exact.one_point_exit(seq, ell, q)) <= 1e-15 for ell, h in rows)
    _, rows = load_csv(str(out / "one_point_dual.csv"))
    assert [r[0] for r in rows] == list(range(seq.n, seq.top + seq.n + 1))
    assert all(abs(h - exact.one_point_exit_dual(seq, ell, q)) <= 1e-15 for ell, h in rows)


def test_exact_float_partition_in_range(tmp_path):
    doc = {"model": {"finite": {"sequence": [0, 2, 4, 6, 8], "q": {"base": 3, "n": 4}}}}
    rc, out = run_cli(tmp_path, doc, "exact")
    assert rc == 0
    summary = json.loads((out / "exact_summary.json").read_text())
    z = partition_det(StartSequence((0, 2, 4, 6, 8)))
    expected = float(z(Fraction(3**0.25)))
    assert float(summary["partition_at_q"]) == pytest.approx(expected, rel=1e-12)
    assert summary["reversal_pass"] is True


def test_exact_builds_one_cyclotomic_product(tmp_path, monkeypatch):
    # The reversal check takes the dual's Z from Z's own product.
    calls = []
    real = exact.power_product

    def counted(factors, bound):
        calls.append(bound)
        return real(factors, bound)

    monkeypatch.setattr(exact, "power_product", counted)
    doc = {"model": {"finite": {"sequence": [0, 2, 3, 7], "q": "7/10"}}}
    rc, out = run_cli(tmp_path, doc, "exact")
    assert rc == 0
    assert len(calls) == 1
    summary = json.loads((out / "exact_summary.json").read_text())
    assert summary["reversal_pass"] is True and summary["reversal_residual"] == 0


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
    assert capsys.readouterr().err == "config error: task.seed: seed must be at least 0, got -5\n"
    assert not (out / "area_series.csv").exists()


@pytest.mark.parametrize(
    "command, samples, message",
    [
        ("arctic", "1", "task.samples: samples must lie in [2, 1000000], got 1"),
        ("sample", "0", "task.sweeps: sweeps must lie in [1, 10000000], got 0"),
    ],
)
def test_samples_flag_is_a_task_override(tmp_path, capsys, command, samples, message):
    # --samples sets task.sweeps for sample and task.samples otherwise,
    # under the rules and messages of the configuration file.
    doc = FINITE if command == "sample" else SCALED_UNIFORM
    rc, out = run_cli(tmp_path, doc, command, "--samples", samples)
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, key, lo, cap", [
    ("arctic", "samples", 2, curves.MAX_SAMPLES),
    ("sample", "sweeps", 1, sampler.MAX_SWEEPS),
])
def test_a_count_past_its_cap_exits_1_without_a_traceback(tmp_path, command, key, lo, cap):
    doc = FINITE if command == "sample" else SCALED_UNIFORM
    out = tmp_path / "out"
    proc = run_module(command, "--config", write_config(tmp_path, doc), "--out", str(out),
                      "--samples", str(cap + 1))
    assert proc.returncode == 1
    assert proc.stderr == f"config error: task.{key}: {key} must lie in [{lo}, {cap}], got {cap + 1}\n"
    assert not out.exists()


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


def test_failing_arctic_writes_nothing(tmp_path, capsys):
    # At 1e300 the right branch lies beyond the doubles (2 ln qq > 700): the
    # sweep fails before any file is written.
    doc = dict(SCALED_UNIFORM, model={"scaled": {"segments": [[1.0, 2.0]], "base": 1e300}})
    rc, out = run_cli(tmp_path, doc, "arctic", "--svg")
    assert rc == 2
    assert "right branch lies beyond the float range" in capsys.readouterr().err
    assert not out.exists()


def test_arctic_t_on_no_branch_drops_only_its_overlays(tmp_path, capsys):
    # 9 = 3**alpha(1) is the right branch's end, so t = 9 lies on no branch,
    # and at t = 0 the tangent line degenerates (x = 1): the command notes
    # both and draws every other overlay.
    doc = dict(SCALED_UNIFORM, task={"samples": 40, "t_values": [0.0, 18.0, 9.0]})
    rc, out = run_cli(tmp_path, doc, "arctic", "--svg")
    assert rc == 0
    err = capsys.readouterr().err
    assert "note: t=9.0 lies on no branch of the arctic curve" in err
    assert "note: tangent line undefined at t=0.0" in err
    assert "t=18.0" not in err
    svg = (out / "arctic.svg").read_text()
    csv = (out / "arctic.csv").read_text()

    only = dict(SCALED_UNIFORM, task={"samples": 40, "t_values": [18.0]})
    (tmp_path / "only").mkdir()
    rc, out = run_cli(tmp_path / "only", only, "arctic", "--svg")
    assert rc == 0
    assert (out / "arctic.svg").read_text() == svg
    assert (out / "arctic.csv").read_text() == csv


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
    rc, out = run_cli(tmp_path, doc, "arctic")
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("base", [math.exp(352.0)])
def test_arctic_uniform_base_beyond_float_range(tmp_path, capsys, base):
    # e**352: 2 * 352 = 704 >= 700, so no right-branch t is representable.
    doc = {"model": {"scaled": {"segments": [[1.0, 2.0]], "base": base}}}
    rc, out = run_cli(tmp_path, doc, "arctic")
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "right branch" in err and "Traceback" not in err
    assert not out.exists()


def test_arctic_uniform_base_whose_poles_leave_the_doubles(tmp_path, capsys):
    # At 1e-300 the pole qq**2 = 1e-600 is no double, but both branches hold
    # double t: the right one on the negative axis, the left one past t = 1.
    doc = {"model": {"scaled": {"segments": [[1.0, 2.0]], "base": 1e-300}}}
    rc, out = run_cli(tmp_path, doc, "arctic")
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    _, rows = load_csv(str(out / "arctic.csv"))
    for branch, sign in (("right", -1.0), ("left", 1.0)):
        points = [row[1:] for row in rows if row[0] == branch]
        assert len(points) >= 300
        assert all(math.copysign(1.0, t) == sign and math.isfinite(bx) and math.isfinite(by)
                   for t, bx, by in points)


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


def test_window_selector_takes_the_kth_window_of_the_ladder(tmp_path):
    # An interior filled window (the slope-1 segment) before an interior gap
    # window (the jump): window:K is the K-th, and its arc and its tent
    # carry the ladder's one label.
    doc = {"model": {"scaled": {"segments": [[0.25, 2.0], [0.25, 1.0], [0.25, 2.0], [0.25, 2.0]],
                                "jumps": [[0.75, 1.0]], "base": 3.0}}}
    rc, out = run_cli(tmp_path, doc, "limits")
    assert rc == 0
    tents = [r[1] for r in load_csv(str(out / "limits.csv"))[1] if "window" in r[1]]
    for k, label in ((1, "filled_window_1"), (2, "gap_window_2")):
        doc["task"] = {"branch": f"window:{k}", "samples": 24}
        rc, out = run_cli(tmp_path, doc, "arctic")
        assert rc == 0
        _, rows = load_csv(str(out / "arctic.csv"))
        assert rows and {r[0] for r in rows} == {label}
        assert label in tents


FINITE_COMMANDS = ("exact", "sample", "verify")
SCALED_COMMANDS = ("arctic", "limits", "verify")


@pytest.mark.parametrize("q, problem", [
    (1, "q = 1 is excluded"), ("1/1", "q = 1 is excluded"),
    ({"base": 1, "n": 3}, "q = 1 is excluded"), (0, "q = 0 is excluded"),
    (-2, "q must be positive"), ("2/0", "cannot parse fraction '2/0'"),
])
def test_weights_are_refused_at_validation_in_the_library_words(tmp_path, capsys, q, problem):
    # exact._weight's refusal is a config error, listed with every other
    # problem of the file; no command gets to run or make its output directory.
    for task, others in (({}, []), ({"seed": -1}, ["task.seed: seed must be at least 0, got -1"])):
        doc = {"model": {"finite": {"sequence": [0, 1, 3], "q": q}}, "task": task}
        for command in FINITE_COMMANDS:
            rc, out = run_cli(tmp_path, doc, command)
            assert rc == 1 and not out.exists(), command
            lines = capsys.readouterr().err.splitlines()
            assert lines[0].startswith(f"config error: model.finite.q: {problem}"), command
            assert lines[1:] == [f"config error: {p}" for p in others]


def test_a_root_past_the_doubles_is_a_config_error(tmp_path, capsys):
    # 1 / n of a {base, n} weight with n beyond the doubles raised a raw
    # OverflowError through every finite command.
    doc = {"model": {"finite": {"sequence": [0, 1, 3], "q": {"base": 2, "n": 10**400}}}}
    for command in FINITE_COMMANDS:
        rc, out = run_cli(tmp_path, doc, command)
        assert rc == 1 and not out.exists(), command
        err = capsys.readouterr().err
        assert err.startswith("config error: model.finite.q: q rounds to 1 as a double"), command
        assert "Traceback" not in err


@pytest.mark.parametrize("base, problem", [
    (1, "base 1 is the unweighted point; the scaled model needs base != 1"),
    (0, "base must be a finite positive number, got 0.0"),
    (-1, "base must be a finite positive number, got -1.0"),
])
def test_bases_are_refused_at_validation_in_the_library_words(tmp_path, capsys, base, problem):
    for task, others in (({}, []), ({"samples": 1}, ["task.samples: samples must lie in [2, 1000000], got 1"])):
        doc = {"model": {"scaled": {"segments": [[1.0, 2.0]], "base": base}}, "task": task}
        for command in SCALED_COMMANDS:
            rc, out = run_cli(tmp_path, doc, command)
            assert rc == 1 and not out.exists(), command
            lines = capsys.readouterr().err.splitlines()
            assert lines == [f"config error: model.scaled.base: {problem}",
                             *(f"config error: {p}" for p in others)], command


@pytest.mark.parametrize("branch", ["right", "left"])
def test_arctic_side_selection(tmp_path, branch):
    doc = dict(SCALED_GAPPED, task={"branch": branch, "samples": 24})
    rc, out = run_cli(tmp_path, doc, "arctic")
    assert rc == 0
    _, rows = load_csv(str(out / "arctic.csv"))
    assert rows and {r[0] for r in rows} == {branch}


def test_arctic_notes_skipped_points_and_self_intersections(tmp_path, capsys):
    doc = {
        "model": {"scaled": dict(SCALED_HEX_LIKE["model"]["scaled"], base=1e-20)},
        "task": {"samples": 200},
    }
    rc, _ = run_cli(tmp_path, doc, "arctic")
    assert rc == 0
    err = capsys.readouterr().err
    assert re.search(r"^note: right: skipped [1-9][0-9]* points: the point map is singular"
                     r" there, or t lies too close to a branch end$", err, re.M)
    assert "note: right: sampled polyline self-intersects\n" in err
    assert "lie outside" not in err
    # Next to base 1 whole arcs leave the box [0, alpha(1)] x [0, 1] (UNIFORM:
    # alpha(1) = 2): 370 of 408 right-branch points at 1 - 1e-8 and 232 of 408
    # left-branch points at 1 + 1e-6 lie more than 2e-9 outside it.
    for base, least in ((1 - 1e-8, {"right": 300}), (1 + 1e-6, {"left": 200}), (1.1, {})):
        doc = {"model": {"scaled": {"segments": [[1.0, 2.0]], "base": base}},
               "task": {"samples": 400}}
        rc, _ = run_cli(tmp_path, doc, "arctic")
        assert rc == 0
        err = capsys.readouterr().err
        found = re.findall(r"^note: (\w+): (\d+) points lie outside \[0, 2\] x \[0, 1\]$", err, re.M)
        assert {branch for branch, _ in found} == set(least)
        assert all(int(count) >= least[branch] for branch, count in found)


def test_limits_notes_each_edge_window_once(tmp_path, capsys):
    rc, out = run_cli(tmp_path, SCALED_HEX_LIKE, "limits")
    assert rc == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
    message = "freezing windows touching the profile edge have no documented limit shape"
    assert notes == [f"note: window 1: {message}", f"note: window 3: {message}"]
    _, rows = load_csv(str(out / "limits.csv"))
    tents = [(r[0], r[1]) for r in rows if "window" in r[1]]
    assert tents == [("q_to_0", "gap_window_2")] * 4 + [("q_to_inf", "gap_window_2")] * 4


def test_task_tolerance_is_an_unknown_key(tmp_path, capsys):
    doc = dict(SCALED_UNIFORM, task={"tolerance": 1e-10})
    rc, out = run_cli(tmp_path, doc, "verify")
    assert rc == 1
    assert capsys.readouterr().err == "config error: task: unknown keys ['tolerance']\n"
    assert not out.exists()


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
    assert "dual_config_area" in names and "second_family_area" not in names
    for check in report["checks"]:
        assert check["residual"] <= check["tolerance"]


def test_verify_reports_a_non_finite_residual_as_failed(tmp_path, capsys, monkeypatch):
    # JSON holds no inf or nan, so such a residual is reported as an error.
    bad = {"one_point_complementarity": math.inf, "csv_round_trip": math.nan}
    checks = [(name, (lambda cfg, r=bad[name]: r) if name in bad else residual_of, tolerance)
              for name, residual_of, tolerance in cli._CHECKS]
    monkeypatch.setattr(cli, "_CHECKS", checks)
    rc, out = run_cli(tmp_path, FINITE, "verify")
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads((out / "verify.json").read_text())
    assert report["all_pass"] is False
    rows = {c["name"]: c for c in report["checks"]}
    for name, residual in bad.items():
        row = rows.pop(name)
        assert row["pass"] is False and row["residual"] is None
        assert row["error"] == f"the residual {residual!r} is outside the float range"
    assert all(c["pass"] for c in rows.values())


@pytest.mark.parametrize("base, message", [(1e200, "the right branch lies beyond")])
def test_verify_reports_a_raising_check_as_failed(tmp_path, capsys, base, message):
    doc = {"model": {"scaled": {"segments": [[1.0, 2.0]], "base": base}}}
    rc, out = run_cli(tmp_path, doc, "verify")
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads((out / "verify.json").read_text())
    assert report["all_pass"] is False
    checks = {c["name"]: c for c in report["checks"]}
    envelope = checks.pop("envelope_residual")
    assert envelope["pass"] is False and envelope["residual"] is None
    assert envelope["tolerance"] == 1e-10
    assert envelope["error"].startswith(message)
    assert len(checks) == 10 and all(c["pass"] for c in checks.values())


def test_verify_passes_at_base_1e_300(tmp_path):
    # The family equation's terms x qq**Y and (1 - x) qq**X / t leave the
    # doubles at the arc's points near t = 0; relative to their size the
    # points lie on the curve to rounding.
    doc = {"model": {"scaled": {"segments": [[1.0, 2.0]], "base": 1e-300}}}
    rc, out = run_cli(tmp_path, doc, "verify")
    assert rc == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["all_pass"] is True
    envelope = next(c for c in report["checks"] if c["name"] == "envelope_residual")
    assert envelope["residual"] <= 1e-12 and envelope["tolerance"] == 1e-10


@pytest.mark.parametrize("base, branch", [(1e-2, "right"), (1e-2, "left"),
                                          (1e-300, "right"), (1e-300, "left")])
def test_envelope_residual_flags_a_moved_point(base, branch):
    d = StartDensity([(1.0, 2.0)])
    dom = next(dom for dom in curves.t_domains(d, base) if dom.branch == branch)
    txy = curves.arctic_curve(d, base, dom, n_samples=24).txy
    t, bx, by = txy[len(txy) // 2].tolist()
    x = curves.x_of_t(d, base, t)
    assert curves._envelope_residual(x, base, t, bx, by) <= 1e-12
    assert curves._envelope_residual(x, base, t, bx, by + 1e-8) > 1e-10


def test_envelope_residual_with_terms_within_one_is_the_plain_residual():
    d = StartDensity([(1.0, 2.0)])
    right = curves.t_domains(d, 3.0)[0]
    t, bx, by = curves.arctic_curve(d, 3.0, right, n_samples=24).txy[5].tolist()
    x = curves.x_of_t(d, 3.0, t)
    by += 1e-6
    terms = (x * 3.0**by, (1.0 - x) / t * 3.0**bx)
    assert max(map(abs, terms)) <= 1.0
    assert curves._envelope_residual(x, 3.0, t, bx, by) == abs(terms[0] + terms[1] - 1.0)


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


def run_module(*args):
    """`python -m qpaths.cli` with args in a child process, which imports the
    package this run imports, with or without PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "qpaths.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point(capsys):
    proc = run_module("--help")
    assert proc.returncode == 0
    # One parser: every command shows the shared help, a line per command.
    for name in ("exact", "sample", "arctic", "limits", "verify"):
        with pytest.raises(SystemExit) as info:
            cli.main([name, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for out in (proc.stdout, text):
            for command, fn in cli._COMMANDS.items():
                assert f"\n  {command:<8}{fn.__doc__}\n" in out


def test_main_calls_share_one_parser(tmp_path, capsys):
    # Two runs in one process write the same bytes, and the parser they
    # share prints the help a freshly built one does.
    cfg = write_config(tmp_path, FINITE)
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert cli.main(["exact", "--config", cfg, "--out", str(out)]) == 0
    for name in ("partition.csv", "one_point.csv", "one_point_dual.csv", "exact_summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert cli.build_parser() is cli.build_parser()
    fresh = cli.build_parser.__wrapped__()
    capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit):
            cli.main(["exact", "--help"])
        assert capsys.readouterr().out == fresh.format_help()


def test_module_entry_exits_with_the_command_code(tmp_path):
    out = tmp_path / "out"
    proc = run_module("verify", "--config", write_config(tmp_path, FINITE), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "verify.json").read_text())["all_pass"] is True


@pytest.mark.parametrize("sub", ["", "sub"])
def test_unusable_out_path_is_an_error_without_a_traceback(tmp_path, capsys, sub):
    # --out names an existing file, or a directory below one.
    cfg = write_config(tmp_path, SCALED_GAPPED)
    blocker = tmp_path / "afile"
    blocker.write_text("keep\n", encoding="utf-8")
    out = blocker / sub if sub else blocker
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main(["limits", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and str(blocker) in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert blocker.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize(
    "key, pairs", [("segments", [[10**400, 2.0]]), ("jumps", [[0.5, -(10**400)]])]
)
def test_pair_beyond_float_range_is_a_config_error(tmp_path, capsys, key, pairs):
    # float() of a 400-digit integer raises OverflowError; StartDensity
    # refuses the number in the words of errors.real_value.
    doc = {"model": {"scaled": dict(SCALED_GAPPED["model"]["scaled"], **{key: pairs})}}
    rc, out = run_cli(tmp_path, doc, "limits")
    assert rc == 1
    number = {"segments": "segment 0: width", "jumps": "jump 0: height"}[key]
    message = f"model.scaled: {number} lies beyond the float range"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_oversized_json_integer_is_a_config_error(tmp_path, capsys):
    # json.loads raises a plain ValueError on an integer literal beyond
    # Python's 4300-digit string-conversion cap.
    cfg = tmp_path / "run.json"
    base = "1" + "0" * 5000
    cfg.write_text('{"model": {"scaled": {"segments": [[1.0, 2.0]], "base": ' + base + "}}}")
    out = tmp_path / "out"
    rc = cli.main(["arctic", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


SCALED_CORNERED = {
    "model": {"scaled": {"segments": [[1 / 3, 2.0], [1 / 3, 4.0], [1 / 3, 2.0]], "base": 1e-6}},
    "task": {"samples": 200},
}

# The sha256 prefix of every file each command writes on one small config.
PINNED_OUTPUTS = [
    ("exact", FINITE, (), {
        "exact_summary.json": "c519605eddb54731",
        "one_point.csv": "7b2cc244e344d68a",
        "one_point_dual.csv": "757535008b6b4c72",
        "partition.csv": "81e1719dc2a9d318",
    }),
    ("exact", {"model": {"finite": {"sequence": [0, 2, 3, 7], "q": {"base": 3, "n": 4}}}}, (), {
        "exact_summary.json": "6cd94a084f115dd6",
        "one_point.csv": "c69cf1482b19d5e2",
        "one_point_dual.csv": "9c3186f8a0e6b174",
        "partition.csv": "b3289f8ef7d3b644",
    }),
    ("sample", FINITE, (), {
        "area_series.csv": "cf305f10a75b3511",
        "density.csv": "20d95b86ec94e294",
    }),
    ("arctic", SCALED_UNIFORM, ("--svg",), {
        "arctic.csv": "5b83e2ca740b75cb",
        "arctic.svg": "9cae0327f77ed969",
    }),
    ("limits", SCALED_GAPPED, (), {"limits.csv": "abce34912f89886f"}),
    # 347 of the 464 rows repeat the (X, Y) of the row before.
    ("arctic", SCALED_CORNERED, ("--svg",), {
        "arctic.csv": "94c8191555bbfff7",
        "arctic.svg": "bf5c4b60cc345cc3",
    }),
]


@pytest.mark.parametrize("command, doc, extra, digests", PINNED_OUTPUTS)
def test_output_files_are_pinned(tmp_path, command, doc, extra, digests):
    rc, out = run_cli(tmp_path, doc, command, *extra)
    assert rc == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in out.iterdir()}
    assert written == digests

"""Command-line entry point: ``qpaths <command> --config FILE [flags]``.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache

from . import actions, curves, serialize
from .config import ModelConfig, load_config
from .configs import dual_config, enumerate_configs
from .errors import (
    ConfigError,
    InvalidArgument,
    NumericalFailure,
    QpathsError,
    SingularPoint,
    UnsupportedConfiguration,
    float_range,
    float_value,
)
from .exact import (
    StartSequence,
    _dual_partition,
    _duality_exponent,
    _reversal_check,
    dual_sequence,
    one_point_exit,
    one_point_exit_det,
    one_point_table,
    partition_det,
    partition_poly,
    partition_product,
)
from .profile import StartDensity, freezing_tent, limit_curve
from .qpoly import QPolynomial
from .sampler import run_chain


def _require(cfg: ModelConfig, kind: str, command: str) -> None:
    if cfg.kind != kind:
        raise InvalidArgument(f"{command} needs a {kind} model configuration")


def _out_dir(cfg: ModelConfig) -> str:
    out = cfg.out or "."
    os.makedirs(out, exist_ok=True)
    return out


@float_range
def _partition_function(z: QPolynomial, q):
    """Z at the configured q: exact at a rational q, a finite float otherwise."""
    # Z has nonnegative coefficients, so at q > 0 a value of 0 has underflowed.
    return float_value(z(q), f"partition function at q = {q!r}", positive=True)


def cmd_exact(cfg: ModelConfig, args) -> int:
    """Partition function and one-point tables."""
    _require(cfg, "finite", "exact")
    seq, q = cfg.sequence, cfg.q
    z = partition_poly(seq)
    z_at_q = _partition_function(z, q)

    table = one_point_table(seq, q)
    # H_dual(ell) = 1 - H(ell + 1), and 1 from a_n on, where no path exits.
    one_point_dual = [(ell, 1 - table[ell + 1] if ell < seq.top else type(q)(1))
                      for ell in range(seq.n, seq.top + seq.n + 1)]
    reversal_ok, reversal_resid = _reversal_check(seq, z, _dual_partition(seq, z))
    summary = {
        "sequence": list(seq),
        "q": serialize.format_cell(q),
        "partition_at_q": serialize.format_cell(z_at_q),
        "partition_degree": z.degree,
        "reversal_pass": reversal_ok,
        "reversal_residual": reversal_resid,
    }
    out = _out_dir(cfg)
    serialize.write_csv(os.path.join(out, "partition.csv"), ("degree", "coefficient"),
                        [serialize.IndexedRows(z.coeffs)])
    serialize.write_csv(os.path.join(out, "one_point.csv"), ("ell", "H"), [serialize.IndexedRows(table)])
    serialize.write_csv(os.path.join(out, "one_point_dual.csv"), ("ell", "H_dual"), one_point_dual)
    serialize.write_text(os.path.join(out, "exact_summary.json"),
                         json.dumps(summary, indent=2) + "\n")
    print(f"partition degree {z.degree}, Z(q) in exact_summary.json")
    print(f"reversal symmetry {'pass' if reversal_ok else 'FAIL'} (residual {reversal_resid:g})")
    print(f"wrote partition.csv, one_point.csv, one_point_dual.csv in {out}")
    return 0


def cmd_sample(cfg: ModelConfig, args) -> int:
    """Heat-bath sampling of path configurations."""
    _require(cfg, "finite", "sample")
    result = run_chain(cfg.sequence, cfg.q, cfg.sweeps, cfg.seed)
    out = _out_dir(cfg)
    serialize.write_csv(
        os.path.join(out, "density.csv"), ("x", "y", "count"),
        [serialize.ArrayRows(result.density.rows())],
    )
    serialize.write_csv(os.path.join(out, "area_series.csv"), ("sweep", "area"),
                        [serialize.IndexedRows(result.area_series)])
    print(f"{result.sweeps} sweeps, acceptance rate {result.acceptance_rate:.3f}, seed {result.seed}")
    print(f"wrote density.csv, area_series.csv in {out}")
    return 0


def _select_domains(cfg: ModelConfig, domains):
    """The branches of the ladder ``domains`` that task.branch names; window:K is its K-th window."""
    if cfg.branch == "all":
        return list(domains)
    if cfg.branch in ("right", "left"):
        return [d for d in domains if d.branch == cfg.branch]
    windows = [d for d in domains if d.window is not None]
    index = int(cfg.branch.partition(":")[2])
    if not 1 <= index <= len(windows):
        raise InvalidArgument(f"no branch matches {cfg.branch!r}")
    return [windows[index - 1]]


# An arc point farther than this times max(alpha(1), 1) outside the box
# [0, alpha(1)] x [0, 1] is noted: the arctic curve lies inside it.
_BOX_SLACK = 1e-9


def cmd_arctic(cfg: ModelConfig, args) -> int:
    """Arctic-curve branches as CSV (optionally SVG)."""
    import numpy as np
    _require(cfg, "scaled", "arctic")
    d, qq, n_samples = cfg.density, cfg.base, cfg.samples
    ladder = curves.t_domains(d, qq)
    domains = _select_domains(cfg, ladder)
    top = d.alpha_top
    slack = _BOX_SLACK * max(top, 1.0)
    blocks = []
    branch_curves = []
    for dom in domains:
        curve = curves.arctic_curve(d, qq, dom, n_samples=n_samples)
        branch_curves.append(curve)
        blocks.append(serialize.ArrayRows(curve.txy, (dom.branch,)))
        if curve.skipped:
            print(f"note: {dom.branch}: skipped {curve.skipped} points: the point map is singular"
                  " there, or t lies too close to a branch end", file=sys.stderr)
        if curve.self_intersecting:
            print(f"note: {dom.branch}: sampled polyline self-intersects", file=sys.stderr)
        bx, by = curve.txy[:, 1], curve.txy[:, 2]
        outside = np.count_nonzero((np.minimum(bx, by) < -slack) | (bx > top + slack)
                                   | (by > 1.0 + slack))
        if outside:
            print(f"note: {dom.branch}: {outside} points lie outside [0, {top:.6g}] x [0, 1]",
                  file=sys.stderr)

    doc = None
    if args.svg:
        z_max = 0.0
        overlays = []
        exit_params = {"right": curves.exit_params_right, "left": curves.exit_params_left}
        for t in cfg.t_values:
            # A refusal, such as a t on no branch or the degenerate t = 0,
            # leaves out only this t's remaining overlays.
            try:
                tangent = curves.tangent_curve(d, qq, t, n_samples=max(2, n_samples // 4))
                overlays.append({"points": tangent.txy[:, 1:], "stroke": "#999999", "width": 0.8})
                # tangent_curve found t's branch; only the outer branches have exits.
                branch = next(dom.branch for dom in ladder if t in dom)
                if branch in exit_params:
                    v = exit_params[branch](d, qq, t)
                    geo = curves.geodesic(qq, v.xi, v.z, n_samples=max(2, n_samples // 4))
                    overlays.append({"points": geo.txy[:, 1:], "stroke": "#b8860b", "width": 0.8})
                    z_max = max(z_max, v.z)
            except QpathsError as exc:
                print(f"note: {exc}; the remaining overlays of t={t!r} are left out",
                      file=sys.stderr)
        box = [(0, 0), (top, 0), (top, 1), (0, 1), (0, 0)]
        items = [{"points": box, "stroke": "#000000", "width": 0.6, "dash": "4 3"}]
        for which in ("q_to_0", "q_to_inf"):
            for part in limit_curve(d, which):
                items.append({"points": part, "stroke": "#bbbbbb", "width": 0.8, "dash": "2 2"})
        items.extend({"points": curve.txy[:, 1:], "width": 1.6} for curve in branch_curves)
        items.extend(overlays)
        doc = serialize.render_svg(
            items, x_range=(0.0, top + z_max), y_range=(0.0, 1.0 + z_max)
        )

    out = _out_dir(cfg)
    serialize.write_csv(os.path.join(out, "arctic.csv"), ("branch", "t", "X", "Y"), blocks)
    written = ["arctic.csv"]
    if doc is not None:
        serialize.write_svg(os.path.join(out, "arctic.svg"), doc)
        written.append("arctic.svg")
    print(f"wrote {', '.join(written)} in {out}")
    return 0


def cmd_limits(cfg: ModelConfig, args) -> int:
    """Degenerate-weight limit polylines."""
    _require(cfg, "scaled", "limits")
    d = cfg.density
    # Each tent takes the label of its window's branch in the ladder.
    windows = [dom for dom in curves.t_domains(d, cfg.base) if dom.window is not None]
    rows = []
    notes = {}  # one note per window, not one per limit
    for which in ("q_to_0", "q_to_inf"):
        main, closing = limit_curve(d, which)
        rows.extend((which, "main", i, x, y) for i, (x, y) in enumerate(main))
        rows.extend((which, "closing", i, x, y) for i, (x, y) in enumerate(closing))
        for w_index, dom in enumerate(windows, start=1):
            try:
                tent = freezing_tent(d, dom.window, which)
            except UnsupportedConfiguration as exc:
                notes.setdefault(w_index, exc)
                continue
            rows.extend((which, dom.branch, i, x, y) for i, (x, y) in enumerate(tent))
    for w_index, exc in notes.items():
        print(f"note: window {w_index}: {exc}", file=sys.stderr)
    out = _out_dir(cfg)
    serialize.write_csv(
        os.path.join(out, "limits.csv"), ("limit", "part", "vertex", "X", "Y"), rows
    )
    print(f"wrote limits.csv in {out}")
    return 0


_SMALL_SEQS = ((0, 2), (0, 1, 3), (0, 2, 5), (0, 3, 4, 6))
_TWO = StartDensity([(1.0, 2.0)])


def _det_vs_product(cfg):
    worst = 0.0
    for seq in map(StartSequence, _SMALL_SEQS):
        z = partition_det(seq)
        for q in (Fraction(1, 3), Fraction(7, 2)):
            worst = max(worst, abs(float(z(q) - partition_product(seq, q))))
    return worst


def _poly_vs_det(cfg):
    return sum(partition_poly(seq) != partition_det(seq) for seq in map(StartSequence, _SMALL_SEQS))


def _vs_enumeration(cfg):
    seq = StartSequence((0, 2, 3))
    q = Fraction(2, 3)
    brute = sum(q ** c.total_area() for c in enumerate_configs(seq))
    return abs(float(partition_det(seq)(q) - brute))


def _dual_config_area(cfg):
    seq = StartSequence((0, 2, 3))
    e = _duality_exponent(seq)
    return max(abs(c.total_area() + dual_config(c).total_area() - e) for c in enumerate_configs(seq))


def _duality(cfg):
    seq = StartSequence((0, 2, 5))
    # Independent routes: Z's product form against the dual's determinant.
    return _reversal_check(seq, partition_poly(seq), partition_det(dual_sequence(seq)))[1]


def _one_point_triple(cfg):
    seq = StartSequence((0, 2, 5))
    q = Fraction(2, 5)
    zq = partition_det(seq)(q)
    by_exit = {}
    for c in enumerate_configs(seq):
        # Exit abscissa: where the top path first reaches the top row.
        ell = max(x for x, y in c.paths[-1] if y == seq.n)
        by_exit[ell] = by_exit.get(ell, Fraction(0)) + q ** c.total_area()
    worst = 0.0
    for ell in range(seq.top + 1):
        # The one-point function is the cumulative weight of exits at or
        # beyond ell, so the oracle is a tail sum.
        tail = sum((w for e, w in by_exit.items() if e >= ell), Fraction(0)) / zq
        h_res = one_point_exit(seq, ell, q)
        h_det = one_point_exit_det(seq, ell, q)
        worst = max(worst, abs(float(h_res - tail)), abs(float(h_res - h_det)))
    return worst


def _complementarity(cfg):
    # The residue route at q against the determinant on the reflected model
    # at 1/q, where an exit at or beyond ell is one below a_n + n + 1 - ell.
    seq = StartSequence((0, 2, 6))
    dual, q, far = dual_sequence(seq), Fraction(3, 7), seq.top + seq.n + 1
    return max(
        abs(float(one_point_exit(seq, ell, q) + one_point_exit_det(dual, far - ell, 1 / q) - 1))
        for ell in range(seq.n + 1, seq.top + 1)
    )


def _closed_vs_quadrature(cfg):
    worst = 0.0
    for qq in (3.0, 1.0 / 3.0):
        far = (18.0, 150.0, -5.0) if qq > 1 else (30.0, 300.0, -5.0)
        # Also 1e-6 (relative) inside the finite outer-branch ends qq**2
        # and 1, where the quadrature refines hardest.
        step = 1e-6 if qq > 1 else -1e-6
        for t in (*far, qq**2 * (1.0 + step), 1.0 - step):
            closed = curves.x_of_t(_TWO, qq, t)
            quad = curves.x_of_t(_TWO, qq, t, method="quadrature")
            worst = max(worst, abs(closed - quad) / abs(closed))
    return worst


def _envelope(cfg):
    density = cfg.density if cfg.kind == "scaled" else _TWO
    qq = cfg.base if cfg.kind == "scaled" else 3.0
    worst = 0.0
    for dom in curves.t_domains(density, qq):
        txy = curves.arctic_curve(density, qq, dom, n_samples=24).txy
        for t, bx, by in txy.tolist():
            x = curves.x_of_t(density, qq, t)
            worst = max(worst, curves._envelope_residual(x, qq, t, bx, by))
    return worst


def _saddle(cfg):
    worst = 0.0
    for t in (18.0, 150.0):
        v = curves.exit_params_right(_TWO, 3.0, t)
        worst = max(worst, abs(actions.saddle_residual_t(_TWO, 3.0, t, v.xi)),
                    abs(actions.saddle_residual_xi_right(_TWO, 3.0, t, v.xi, v.z)))
    return worst


def _csv_round_trip(cfg):
    # One row through the writer and reader the commands use: floats, an
    # int past the int-to-str digit cap, a rational and a text label.
    cells = [math.pi, 1.0 / 3.0, 6.02214076e23, -2.5e-308, 7**9000, Fraction(-22, 7), "right"]
    _, rows = serialize.read_csv(serialize.emit_csv(["cell"] * len(cells), [cells]))
    return 0.0 if rows == [cells] else 1.0


# verify's checks: (name, residual of the model configuration, tolerance).
_CHECKS = [
    ("partition_det_vs_product", _det_vs_product, 0.0),
    ("partition_poly_vs_det", _poly_vs_det, 0.0),
    ("partition_vs_enumeration", _vs_enumeration, 0.0),
    ("dual_config_area", _dual_config_area, 0.0),
    ("partition_duality", _duality, 0.0),
    ("one_point_triple", _one_point_triple, 0.0),
    ("one_point_complementarity", _complementarity, 0.0),
    ("x_closed_vs_quadrature", _closed_vs_quadrature, 1e-8),
    ("envelope_residual", _envelope, 1e-10),
    ("saddle_residuals", _saddle, 1e-6),
    ("csv_round_trip", _csv_round_trip, 0.0),
]


def cmd_verify(cfg: ModelConfig, args) -> int:
    """Run the invariant suite and report residuals."""
    checks = []
    for name, residual_of, tolerance in _CHECKS:
        try:
            residual = float(residual_of(cfg))
            # JSON holds no inf or nan: a residual outside the doubles is an error.
            float_value(residual, f"the residual {residual!r}")
        except QpathsError as exc:
            checks.append({"name": name, "pass": False, "residual": None,
                           "tolerance": tolerance, "error": str(exc)})
            continue
        checks.append({"name": name, "pass": residual <= tolerance,
                       "residual": residual, "tolerance": tolerance})
    report = {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
    text = json.dumps(report, indent=2)
    print(text)
    if cfg.out:
        serialize.write_text(os.path.join(_out_dir(cfg), "verify.json"), text + "\n")
    return 0


_COMMANDS = {
    "exact": cmd_exact,
    "sample": cmd_sample,
    "arctic": cmd_arctic,
    "limits": cmd_limits,
    "verify": cmd_verify,
}


# The help's command list, one line per command from its docstring.
_COMMAND_LIST = "".join(f"\n  {name:<8}{fn.__doc__}" for name, fn in _COMMANDS.items())


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parse_args leaves
    it as it was, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="qpaths",
        description="Exact, sampled and asymptotic analysis of area-weighted\n"
        f"non-intersecting lattice paths.\n\ncommands:{_COMMAND_LIST}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands above")
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="RNG seed override")
    parser.add_argument("--samples", type=int, help="sweep or curve-point count override")
    parser.add_argument("--svg", action="store_true", help="also write an SVG rendering (arctic)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Flags override task keys and meet the file's rules; --samples counts
    # sweeps for sample and curve points for every other command.
    flags = {"seed": args.seed, "out": args.out,
             "sweeps" if args.command == "sample" else "samples": args.samples}
    try:
        cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](cfg, args)
    except (SingularPoint, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (QpathsError, OSError) as exc:
        # An OSError here comes from writing the outputs, as when --out names a file.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: exact (partition and one-point tables), sample (heat-bath
density fields from an exact start), arctic (curve branches as CSV/SVG),
limits (degenerate limit polylines), verify (invariant suite with
residuals). Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import actions, curves, serialize
from .config import ModelConfig, load_config
from .configs import enumerate_configs, to_second_family
from .errors import (
    ConfigError,
    InvalidArgument,
    NumericalFailure,
    QpathsError,
    SingularPoint,
    UnsupportedConfiguration,
    float_range,
)
from .exact import (
    StartSequence,
    dual_sequence,
    one_point_exit,
    one_point_exit_det,
    one_point_exit_dual,
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


def _out_dir(cfg: ModelConfig, args) -> str:
    out = args.out or cfg.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _reversal_exponent(seq: StartSequence) -> int:
    n = seq.n
    return n * (n + 1) * (3 * seq.top + n + 2) // 6


def _reversal_check(seq: StartSequence, z: QPolynomial, z_dual: QPolynomial) -> tuple[bool, int]:
    """Partition-function duality Z_a(q) = q**e Z_dual(1/q), on coefficients.

    Holds when Z_a[k] = Z_dual[e - k] for every k; exact for any q. Returns
    whether it holds and the number of degrees where the two sides differ.
    """
    e = _reversal_exponent(seq)
    lhs = {k: c for k, c in enumerate(z.coeffs) if c}
    rhs = {e - k: c for k, c in enumerate(z_dual.coeffs) if c}
    mismatched = sum(lhs.get(k) != rhs.get(k) for k in lhs.keys() | rhs.keys())
    return mismatched == 0, mismatched


@float_range
def _partition_function(z: QPolynomial, q):
    """Z at the configured q: exact at a rational q, a finite float otherwise."""
    if isinstance(q, Fraction):
        return z(q)
    value = z(float(q))
    # Z has nonnegative coefficients, so at q > 0 a value of 0 has underflowed.
    if not 0.0 < value < math.inf:
        raise NumericalFailure(f"partition function at q = {float(q)!r} is outside the float range")
    return value


def cmd_exact(cfg: ModelConfig, args) -> int:
    _require(cfg, "finite", "exact")
    out = _out_dir(cfg, args)
    seq, q = cfg.sequence, cfg.q
    z = partition_poly(seq)
    z_at_q = _partition_function(z, q)
    serialize.write_csv(
        os.path.join(out, "partition.csv"),
        ("degree", "coefficient"),
        ((i, c) for i, c in enumerate(z.coeffs)),
    )

    def table(fn, lo, hi):
        return [(ell, fn(seq, ell, q)) for ell in range(lo, hi + 1)]

    serialize.write_csv(
        os.path.join(out, "one_point.csv"),
        ("ell", "H"),
        table(one_point_exit, 0, seq.top),
    )
    serialize.write_csv(
        os.path.join(out, "one_point_dual.csv"),
        ("ell", "H_dual"),
        table(one_point_exit_dual, seq.n, seq.top + seq.n),
    )
    reversal_ok, reversal_resid = _reversal_check(seq, z, partition_poly(dual_sequence(seq)))
    summary = {
        "sequence": list(seq),
        "q": serialize.format_cell(q),
        "partition_at_q": serialize.format_cell(z_at_q),
        "partition_degree": z.degree,
        "reversal_pass": reversal_ok,
        "reversal_residual": reversal_resid,
    }
    with open(os.path.join(out, "exact_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"partition degree {z.degree}, Z(q) in exact_summary.json")
    print(f"reversal symmetry {'pass' if reversal_ok else 'FAIL'} (residual {reversal_resid:g})")
    print(f"wrote partition.csv, one_point.csv, one_point_dual.csv in {out}")
    return 0


def cmd_sample(cfg: ModelConfig, args) -> int:
    _require(cfg, "finite", "sample")
    out = _out_dir(cfg, args)
    sweeps = args.samples if args.samples is not None else cfg.sweeps
    seed = args.seed if args.seed is not None else cfg.seed
    result = run_chain(cfg.sequence, float(cfg.q), sweeps, seed)
    serialize.write_csv(
        os.path.join(out, "density.csv"), ("x", "y", "count"), result.density.rows()
    )
    serialize.write_csv(
        os.path.join(out, "area_series.csv"),
        ("sweep", "area"),
        (
            (result.burn_in + i, int(a))
            for i, a in enumerate(result.area_series)
        ),
    )
    print(
        f"{result.sweeps} sweeps (burn-in {result.burn_in}), "
        f"acceptance rate {result.acceptance_rate:.3f}, seed {result.seed}"
    )
    print(f"wrote density.csv, area_series.csv in {out}")
    return 0


def _select_domains(cfg: ModelConfig, domains):
    if cfg.branch == "all":
        return list(domains)
    if cfg.branch in ("right", "left"):
        return [d for d in domains if d.branch == cfg.branch]
    index = cfg.branch.partition(":")[2]
    selected = [d for d in domains if d.branch.endswith(f"window_{index}")]
    if not selected:
        raise InvalidArgument(f"no branch matches {cfg.branch!r}")
    return selected


def cmd_arctic(cfg: ModelConfig, args) -> int:
    _require(cfg, "scaled", "arctic")
    out = _out_dir(cfg, args)
    d, qq = cfg.density, cfg.base
    n_samples = args.samples if args.samples is not None else cfg.samples
    domains = _select_domains(cfg, curves.t_domains(d, qq))

    rows = []
    branch_curves = []
    for dom in domains:
        curve = curves.arctic_curve(d, qq, dom, n_samples=n_samples)
        branch_curves.append((dom, curve))
        rows.extend((dom.branch, t, x, y) for t, x, y in curve.points)
        if curve.skipped:
            print(f"note: {dom.branch}: skipped {curve.skipped} singular points", file=sys.stderr)
        if curve.self_intersecting:
            print(f"note: {dom.branch}: sampled polyline self-intersects", file=sys.stderr)
    serialize.write_csv(os.path.join(out, "arctic.csv"), ("branch", "t", "X", "Y"), rows)
    written = ["arctic.csv"]

    if args.svg:
        z_max = 0.0
        overlays = []
        for t in cfg.t_values:
            tangent = curves.tangent_curve(d, qq, t, n_samples=max(2, n_samples // 4))
            overlays.append({"points": tangent.xy(), "stroke": "#999999", "width": 0.8})
            for exit_params in (curves.exit_params_right, curves.exit_params_left):
                try:
                    v = exit_params(d, qq, t)
                except QpathsError:
                    continue
                z_max = max(z_max, v.z)
                geo = curves.geodesic(qq, v.xi, v.z, n_samples=max(2, n_samples // 4))
                overlays.append({"points": geo.xy(), "stroke": "#b8860b", "width": 0.8})
                break
        top = d.alpha_top
        items = [
            {
                "points": [(0, 0), (top, 0), (top, 1), (0, 1), (0, 0)],
                "stroke": "#000000",
                "width": 0.6,
                "dash": "4 3",
            }
        ]
        for which in ("q_to_0", "q_to_inf"):
            for part in limit_curve(d, which):
                items.append({"points": part, "stroke": "#bbbbbb", "width": 0.8, "dash": "2 2"})
        for dom, curve in branch_curves:
            items.append({"points": curve.xy(), "width": 1.6})
        items.extend(overlays)
        doc = serialize.render_svg(
            items, x_range=(0.0, top + z_max), y_range=(0.0, 1.0 + z_max)
        )
        serialize.write_svg(os.path.join(out, "arctic.svg"), doc)
        written.append("arctic.svg")
    print(f"wrote {', '.join(written)} in {out}")
    return 0


def cmd_limits(cfg: ModelConfig, args) -> int:
    _require(cfg, "scaled", "limits")
    out = _out_dir(cfg, args)
    d = cfg.density
    rows = []
    for which in ("q_to_0", "q_to_inf"):
        main, closing = limit_curve(d, which)
        rows.extend((which, "main", i, x, y) for i, (x, y) in enumerate(main))
        rows.extend((which, "closing", i, x, y) for i, (x, y) in enumerate(closing))
        for w_index, window in enumerate(d.windows, start=1):
            try:
                tent = freezing_tent(d, window, which)
            except UnsupportedConfiguration as exc:
                print(f"note: window {w_index}: {exc}", file=sys.stderr)
                continue
            rows.extend(
                (which, f"{window.kind}_window_{w_index}", i, x, y)
                for i, (x, y) in enumerate(tent)
            )
    serialize.write_csv(
        os.path.join(out, "limits.csv"), ("limit", "part", "vertex", "X", "Y"), rows
    )
    print(f"wrote limits.csv in {out}")
    return 0


def _verify_checks(cfg: ModelConfig):
    tol_env = cfg.tolerance

    checks = []

    def record(name, residual, tolerance):
        checks.append(
            {
                "name": name,
                "pass": bool(residual <= tolerance),
                "residual": float(residual),
                "tolerance": float(tolerance),
            }
        )

    seqs = [StartSequence(s) for s in ((0, 2), (0, 1, 3), (0, 2, 5), (0, 3, 4, 6))]
    worst = 0.0
    for seq in seqs:
        z = partition_det(seq)
        for q in (Fraction(1, 3), Fraction(7, 2)):
            worst = max(worst, abs(float(z(q) - partition_product(seq, q))))
    record("partition_det_vs_product", worst, 0.0)
    record(
        "partition_poly_vs_det",
        sum(partition_poly(seq) != partition_det(seq) for seq in seqs),
        0.0,
    )

    seq = StartSequence((0, 2, 3))
    z = partition_det(seq)
    q = Fraction(2, 3)
    brute = sum(q ** c.total_area() for c in enumerate_configs(seq))
    record("partition_vs_enumeration", abs(float(z(q) - brute)), 0.0)

    worst = 0.0
    for c in enumerate_configs(seq):
        worst = max(worst, abs(to_second_family(c).total_area() - c.total_area()))
    record("second_family_area", worst, 0.0)

    seq = StartSequence((0, 2, 5))
    # Independent routes: Z's product form against the dual's determinant.
    _, mismatched = _reversal_check(seq, partition_poly(seq), partition_det(dual_sequence(seq)))
    record("partition_duality", mismatched, 0.0)

    q = Fraction(2, 5)
    zq = partition_det(seq)(q)
    n = seq.n
    by_exit = {}
    for c in enumerate_configs(seq):
        # Exit abscissa: where the top path first reaches the top row.
        ell = max(x for x, y in c.paths[-1] if y == n)
        by_exit[ell] = by_exit.get(ell, Fraction(0)) + q ** c.total_area()
    worst = 0.0
    for ell in range(seq.top + 1):
        # The one-point function is the cumulative weight of exits at or
        # beyond ell, so the oracle is a tail sum.
        tail = sum((w for e, w in by_exit.items() if e >= ell), Fraction(0)) / zq
        h_res = one_point_exit(seq, ell, q)
        h_det = one_point_exit_det(seq, ell, q)
        worst = max(worst, abs(float(h_res - tail)), abs(float(h_res - h_det)))
    record("one_point_triple", worst, 0.0)

    seq = StartSequence((0, 2, 6))
    q = Fraction(3, 7)
    worst = 0.0
    for ell in range(seq.n + 1, seq.top + 1):
        h = one_point_exit(seq, ell, q)
        hd = one_point_exit_dual(seq, ell - 1, q)
        worst = max(worst, abs(float(h + hd - 1)))
    record("one_point_complementarity", worst, 0.0)

    two = StartDensity([(1.0, 2.0)])
    worst = 0.0
    for qq in (3.0, 1.0 / 3.0):
        far = (18.0, 150.0, -5.0) if qq > 1 else (30.0, 300.0, -5.0)
        # Also 1e-6 (relative) inside the finite outer-branch ends qq**2
        # and 1, where the quadrature refines hardest.
        step = 1e-6 if qq > 1 else -1e-6
        for t in (*far, qq**2 * (1.0 + step), 1.0 - step):
            closed = curves.x_of_t(two, qq, t)
            quad = curves.x_of_t(two, qq, t, method="quadrature")
            worst = max(worst, abs(closed - quad) / abs(closed))
    record("x_closed_vs_quadrature", worst, 1e-8)

    density = cfg.density if cfg.kind == "scaled" else two
    qq = cfg.base if cfg.kind == "scaled" else 3.0
    sc_worst = 0.0
    for dom in curves.t_domains(density, qq):
        curve = curves.arctic_curve(density, qq, dom, n_samples=24)
        for t, bx, by in curve.points:
            x = curves.x_of_t(density, qq, t)
            resid = abs(x * qq**by + (1.0 - x) / t * qq**bx - 1.0)
            sc_worst = max(sc_worst, resid)
    record("envelope_residual", sc_worst, tol_env)

    worst = 0.0
    for t in (18.0, 150.0):
        v = curves.exit_params_right(two, 3.0, t)
        worst = max(worst, abs(actions.saddle_residual_t(two, 3.0, t, v.xi)))
        worst = max(
            worst, abs(actions.saddle_residual_xi_right(two, 3.0, t, v.xi, v.z))
        )
    record("saddle_residuals", worst, 1e-6)

    cells = [math.pi, 1.0 / 3.0, 6.02214076e23, -2.5e-308]
    round_trip = [serialize.parse_cell(serialize.format_cell(v)) for v in cells]
    record("csv_round_trip", 0.0 if round_trip == cells else 1.0, 0.0)
    return checks


def cmd_verify(cfg: ModelConfig, args) -> int:
    out = args.out or cfg.out
    checks = _verify_checks(cfg)
    report = {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
    text = json.dumps(report, indent=2)
    print(text)
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "verify.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


_COMMANDS = {
    "exact": cmd_exact,
    "sample": cmd_sample,
    "arctic": cmd_arctic,
    "limits": cmd_limits,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpaths",
        description="Exact, sampled and asymptotic analysis of area-weighted "
        "non-intersecting lattice paths.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON configuration file")
    common.add_argument("--out", help="output directory (overrides the config)")
    common.add_argument("--seed", type=int, help="RNG seed override")
    common.add_argument(
        "--samples", type=int, help="sample count override (sweeps or curve points)"
    )
    common.add_argument(
        "--svg", action="store_true", help="also write an SVG rendering (arctic)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("exact", "partition function and one-point tables"),
        ("sample", "heat-bath sampling of path configurations"),
        ("arctic", "arctic-curve branches as CSV (optionally SVG)"),
        ("limits", "degenerate-weight limit polylines"),
        ("verify", "run the invariant suite and report residuals"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            # The flag meets the rule of task.seed in the configuration file.
            raise ConfigError([f"task.seed: expected an integer >= 0, got {args.seed!r}"])
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
    except QpathsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

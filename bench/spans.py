"""Span tracing of the qpaths layers, installed from outside the package.

Every wrapper replaces the attribute its caller looks the function up by
(for example ``qpaths.cli.partition_det``, which ``cmd_exact`` resolves
through the ``cli`` module globals), so the package source is untouched.
Spans are kept in memory as (name, start, end, parent, run) and written
once, at the end of a run. A span's self time is its duration minus the
durations of its child spans; counters are summed per run.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    """Span recorder plus per-run counters for one traced benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = 0
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.run][key] += value

    def peak(self, key: str, value: float) -> None:
        c = self.counts[self.run]
        c[key] = max(c[key], value)

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, result) runs once it returns."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            # A later version may drop or rename the function; its
            # metrics then read 0 and the result file lists it here.
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            if name not in self.missing:
                self.missing.append(name)
            return
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        mod = importlib.import_module
        cli, exact, qpoly = mod("qpaths.cli"), mod("qpaths.exact"), mod("qpaths.qpoly")
        sampler, curves = mod("qpaths.sampler"), mod("qpaths.curves")
        actions, quadrature = mod("qpaths.actions"), mod("qpaths.quadrature")
        geometry, serialize = mod("qpaths.geometry"), mod("qpaths.serialize")
        span = self.span

        def plain(name):
            return lambda fn: span(name, fn)

        table = [
            (cli, "main", plain("cli")),
            (cli, "load_config", plain("config.load_config")),
            (cli, "partition_det", plain("exact.partition_det")),
            (cli, "one_point_exit", plain("exact.one_point_exit")),
            (cli, "one_point_exit_dual", plain("exact.one_point_exit_dual")),
            (cli, "run_chain", lambda fn: span("sampler.run_chain", fn, after=self._chain)),
            (cli, "limit_curve", plain("profile.limit_curve")),
            (cli, "freezing_tent", plain("profile.freezing_tent")),
            (exact, "poly_det", plain("qpoly.poly_det")),
            (exact, "q_binomial", plain("qpoly.q_binomial")),
            (exact, "one_point_exit", plain("exact.one_point_exit")),
            (exact, "one_point_exit_dual", plain("exact.one_point_exit_dual")),
            (exact, "most_likely_exit", plain("exact.most_likely_exit")),
            (qpoly.QPolynomial, "exact_div", plain("qpoly.exact_div")),
            (qpoly.QPolynomial, "__mul__", self._mul_counter),
            (sampler, "min_area_config", plain("configs.min_area_config")),
            (sampler, "_estimate_burn_in", self._probe_counter),
            (curves, "t_domains", plain("curves.t_domains")),
            (curves, "arctic_curve", lambda fn: span("curves.arctic_curve", fn, after=self._arc)),
            (curves, "tangent_curve", plain("curves.overlays")),
            (curves, "geodesic", plain("curves.overlays")),
            (curves, "exit_params_right", plain("curves.exit_params")),
            (curves, "exit_params_left", plain("curves.exit_params")),
            (curves, "x_of_t", plain("curves.x_of_t")),
            (curves, "integrate_pv", plain("quadrature.integrate_pv")),
            (actions, "action_bulk", plain("actions.action_bulk")),
            (actions, "action_free", plain("actions.action_free")),
            (actions, "action_free_dual", plain("actions.action_free_dual")),
            (actions, "saddle_residual_t", plain("actions.saddle_residual")),
            (actions, "saddle_residual_xi_right", plain("actions.saddle_residual")),
            (actions, "saddle_residual_xi_left", plain("actions.saddle_residual")),
            (geometry, "polyline_self_intersects", self._geometry),
            (serialize, "write_csv", lambda fn: span("serialize.write_csv", fn, after=self._bytes)),
            (serialize, "write_svg", lambda fn: span("serialize.write_svg", fn, after=self._bytes)),
            (serialize, "render_svg", plain("serialize.render_svg")),
        ]
        # integrate_pv reaches integrate through the quadrature globals;
        # x_of_t and the actions through their own module globals.
        cap = getattr(quadrature, "_ORDER", 0) * getattr(quadrature, "_MAX_PANELS", 0)
        for owner in (curves, actions, quadrature):
            table.append((owner, "integrate", lambda fn: self._integrate(fn, cap)))
        for owner, attr, make in table:
            self._set(owner, attr, make)

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    # -- per-layer hooks ---------------------------------------------------

    def _mul_counter(self, fn):
        def mul(a, b):
            self.count("qpoly.mul.calls")
            self.count("qpoly.mul.coeff_products", len(a.coeffs) * len(b.coeffs))
            return fn(a, b)

        return mul

    def _probe_counter(self, fn):
        def estimate(areas):
            self.count("sampler.probe_sweeps", len(areas))
            return fn(areas)

        return estimate

    def _chain(self, args, result):
        self.count("sampler.proposals", result.proposals)
        self.count("sampler.accepted", result.acceptance_rate * result.proposals)
        self.count("sampler.burn_in_sweeps", result.burn_in)
        self.count("sampler.measured_sweeps", result.sweeps)
        self.count("sampler.chain_sweeps", result.burn_in + result.sweeps)

    def _arc(self, args, curve):
        self.count("curves.points", len(curve.points))
        self.count("curves.skipped", curve.skipped)

    def _bytes(self, args, result):
        self.count("serialize.bytes_written", os.path.getsize(args[0]))

    def _geometry(self, fn):
        def measured(points):
            m = len(points) - 1
            self.count("geometry.self_intersects.segment_pairs", max(m - 1, 0) * max(m - 2, 0) // 2)
            tracemalloc.start()
            try:
                return inner(points)
            finally:
                self.peak("geometry.self_intersects.peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()

        inner = self.span("geometry.self_intersects", fn)
        return measured

    def _integrate(self, fn, cap):
        def counted_call(f, *args, **kwargs):
            if getattr(f, "_bench_counted", False):
                return fn(f, *args, **kwargs)  # reversed-interval recursion
            box = [0]

            def counted(x):
                box[0] += 1
                return f(x)

            counted._bench_counted = True
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self.count("quadrature.integrand_evals", box[0])
                if cap and box[0] > cap:
                    self.count("quadrature.capped_calls")

        return self.span("quadrature.integrate", counted_call)

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self, runs) -> dict[int, dict[str, float]]:
        """Per run: <span>.self_s, <span>.total_s, <span>.calls and the counters."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, run in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {run: defaultdict(float) for run in runs}
        for i, (name, t0, t1, parent, run) in enumerate(self.spans):
            if run not in out:
                continue
            row = out[run]
            row[f"{name}.self_s"] += (t1 - t0) - child[i]
            row[f"{name}.calls"] += 1
            # Only the outermost span of a recursive name counts as total.
            if parent < 0 or self.spans[parent][0] != name:
                row[f"{name}.total_s"] += t1 - t0
        for run in runs:
            for key, value in self.counts.get(run, {}).items():
                out[run][key] += value
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,run\n")
            for name, t0, t1, parent, run in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{run}\n")


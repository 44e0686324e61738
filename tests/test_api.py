"""The package's public names."""

import dataclasses
import inspect

import qpaths
import qpaths.configs


def test_every_public_name_resolves():
    assert len(set(qpaths.__all__)) == len(qpaths.__all__)
    for name in qpaths.__all__:
        assert getattr(qpaths, name) is not None, name


def test_the_second_path_family_is_gone():
    # The reflection onto the dual sequence is one map, dual_config.
    for name in ("to_second_family", "from_second_family", "reflect_second_family"):
        assert name not in qpaths.__all__
        assert not hasattr(qpaths, name)
        assert not hasattr(qpaths.configs, name)
    assert [f.name for f in dataclasses.fields(qpaths.PathConfig)] == ["starts", "paths"]
    assert not hasattr(qpaths.PathConfig, "family")
    assert not hasattr(qpaths.PathConfig, "crossings")
    assert qpaths.dual_config is qpaths.configs.dual_config


def test_the_chain_result_holds_only_what_is_read():
    # ChainResult holds what cli and the benchmark read, and run_chain has
    # no tally option: the chain's states come from the private _states.
    assert [f.name for f in dataclasses.fields(qpaths.ChainResult)] == [
        "density", "area_series", "acceptance_rate", "proposals", "sweeps", "burn_in", "seed"]
    assert list(inspect.signature(qpaths.run_chain).parameters) == ["seq", "q", "sweeps", "seed", "burn_in"]
    assert "_states" not in qpaths.__all__


def test_every_library_name_the_benchmark_reads_exists(tmp_path):
    # The benchmark's workloads, its size ladders and its span wrappers
    # reach the package by these names. Its end-to-end run does not trace,
    # so a name removed here would otherwise go unnoticed there. Five
    # wrapper targets are already gone and their metrics read 0:
    # sampler.min_area_config, sampler._estimate_burn_in,
    # curves.integrate_pv, cli.one_point_exit_dual and actions.integrate.
    import json

    from qpaths import actions, cli, curves, exact, geometry, qpoly, quadrature, sampler, serialize
    from qpaths.profile import StartDensity

    wrapped = {
        cli: ["main", "load_config", "partition_det", "one_point_exit", "run_chain",
              "limit_curve", "freezing_tent"],
        exact: ["poly_det", "q_binomial", "one_point_exit", "one_point_exit_dual",
                "most_likely_exit", "partition_det", "partition_product"],
        qpoly.QPolynomial: ["exact_div", "__mul__"],
        curves: ["t_domains", "arctic_curve", "tangent_curve", "geodesic", "exit_params_right",
                 "exit_params_left", "x_of_t", "integrate"],
        actions: ["action_bulk", "action_free", "action_free_dual", "saddle_residual_t",
                  "saddle_residual_xi_right", "saddle_residual_xi_left"],
        quadrature: ["integrate"],
        geometry: ["polyline_self_intersects"],
        serialize: ["write_csv", "write_svg", "render_svg"],
        sampler: ["run_chain"],
    }
    for owner, names in wrapped.items():
        for name in names:
            assert callable(getattr(owner, name, None)), (owner, name)
    assert quadrature._ORDER * quadrature._MAX_PANELS > 0  # the capped-call count

    seq = exact.StartSequence((0, 2, 4))
    assert exact.partition_det(seq).coeffs
    result = sampler.run_chain(seq, 3 ** 0.5, 3, 1, burn_in=0)
    assert (result.burn_in, result.sweeps) == (0, 3)
    assert result.proposals >= 0 and 0.0 <= result.acceptance_rate <= 1.0
    assert exact.one_point_exit_dual(seq, 2, 0.5) == 1.0 - exact.one_point_exit(seq, 3, 0.5)

    d = StartDensity([(1.0, 2.0)], jumps=())
    assert d.alpha_top == 2.0 and d.windows == ()
    assert curves.x_of_t(d, 3.0, 10.0, method="quadrature") > 0.0
    assert curves.exit_params_right(d, 3.0, 10.0).xi > 0.0
    curve = curves.arctic_curve(d, 3.0, curves.t_domains(d, 3.0)[0], n_samples=8)
    assert curve.points and curve.skipped == 0

    config = tmp_path / "exact.json"
    config.write_text(json.dumps({"model": {"finite": {"sequence": [0, 2, 4], "q": "7/10"}}}))
    assert cli.main(["exact", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "exact_summary.json").read_text())
    assert {"partition_at_q", "reversal_pass", "reversal_residual"} <= summary.keys()

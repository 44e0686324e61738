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

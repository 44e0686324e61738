"""JSON run-configuration parsing and validation."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpaths.config import ModelConfig, load_config, parse_config
from qpaths.curves import MAX_SAMPLES, arctic_curve, geodesic, t_domains, tangent_curve
from qpaths.errors import ConfigError, InvalidArgument
from qpaths.exact import StartSequence
from qpaths.profile import StartDensity
from qpaths.sampler import MAX_SWEEPS, run_chain

FINITE_DOC = {
    "model": {"finite": {"sequence": [0, 2, 5], "q": "3/5"}},
    "task": {"sweeps": 5000, "seed": 7},
}

SCALED_DOC = {
    "model": {
        "scaled": {
            "segments": [[0.5, 2.0], [0.5, 2.0]],
            "jumps": [[0.5, 1.0]],
            "base": 3.0,
        }
    },
    "task": {"branch": "right", "samples": 64, "t_values": [18.0, 150.0]},
}


def test_finite_document_round_trip():
    cfg = parse_config(json.dumps(FINITE_DOC))
    assert cfg.kind == "finite"
    assert tuple(cfg.sequence) == (0, 2, 5)
    assert cfg.q == Fraction(3, 5)
    assert cfg.sweeps == 5000
    assert cfg.seed == 7
    # untouched fields keep their defaults
    assert cfg.branch == "all"
    assert cfg.samples == 400
    assert cfg.density is None and cfg.base is None


def test_scaled_document_round_trip():
    cfg = parse_config(json.dumps(SCALED_DOC))
    assert cfg.kind == "scaled"
    assert cfg.base == 3.0
    assert cfg.branch == "right"
    assert cfg.samples == 64
    assert cfg.t_values == (18.0, 150.0)
    assert cfg.density.alpha(0.25) == pytest.approx(0.5)
    assert cfg.density.alpha(0.75) == pytest.approx(2.5)
    assert cfg.sequence is None and cfg.q is None


def test_weight_forms():
    def q_of(value):
        doc = {"model": {"finite": {"sequence": [0, 1], "q": value}}}
        return parse_config(json.dumps(doc)).q

    assert q_of(2) == Fraction(2)
    # decimal literals are recovered exactly, not via binary float repr
    assert q_of(0.1) == Fraction(1, 10)
    assert q_of(2.5) == Fraction(5, 2)
    assert q_of("7/10") == Fraction(7, 10)
    root = q_of({"base": 3, "n": 30})
    assert isinstance(root, float)
    assert root == pytest.approx(3.0 ** (1.0 / 30.0), rel=1e-15)


def test_weight_rejections():
    for bad in (0, -3, 0.0, -1.5, "0/3", "x", True, [2], {"base": 0, "n": 4},
                {"base": 10**400, "n": 4}):
        doc = {"model": {"finite": {"sequence": [0, 1], "q": bad}}}
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))


def test_all_violations_reported_in_one_pass():
    doc = {
        "model": {
            "scaled": {
                "segments": [[0.4, 2.0], [0.5, 0.5]],
                "jumps": [[0.5, -1.0]],
                "base": 1.0,
            }
        },
        "task": {"branch": "middle", "samples": 1, "seed": -2, "bogus": 3},
    }
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    text = "\n".join(info.value.problems)
    assert "sum to 1" in text  # widths 0.4 + 0.5
    assert "slope" in text  # slope 0.5 < 1
    assert "jump" in text  # negative jump height
    assert "model.scaled.base" in text  # base 1 rejected
    assert "task.branch" in text
    assert "task.samples" in text
    assert "task.seed" in text
    assert "unknown keys ['bogus']" in text
    assert len(info.value.problems) >= 8


def test_integers_beyond_the_float_range_are_rejected():
    doc = {
        "model": {"scaled": {"segments": [[1.0, 2.0]], "base": 10**400}},
        "task": {"t_values": [10**400]},
    }
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    labels = [p.partition(":")[0] for p in info.value.problems]
    assert labels == ["model.scaled.base", "task.t_values"]


def test_counts_past_their_caps_are_refused_in_the_library_words():
    # Refused before anything is allocated, by the config and by every
    # library function that takes the count.
    doc = {"model": SCALED_DOC["model"], "task": {"samples": MAX_SAMPLES + 1, "sweeps": MAX_SWEEPS + 1}}
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    rule = "{} must lie in [{}, {}], got {}"
    assert info.value.problems == [
        "task.samples: " + rule.format("samples", 2, MAX_SAMPLES, MAX_SAMPLES + 1),
        "task.sweeps: " + rule.format("sweeps", 1, MAX_SWEEPS, MAX_SWEEPS + 1),
    ]
    doc["task"] = {"samples": MAX_SAMPLES, "sweeps": MAX_SWEEPS}
    cfg = parse_config(json.dumps(doc))
    assert (cfg.samples, cfg.sweeps) == (MAX_SAMPLES, MAX_SWEEPS)
    d = StartDensity([(1.0, 2.0)])
    samples = rule.format("n_samples", 2, MAX_SAMPLES, MAX_SAMPLES + 1)
    for call in (lambda n: arctic_curve(d, 3.0, t_domains(d, 3.0)[0], n_samples=n),
                 lambda n: tangent_curve(d, 3.0, 18.0, n_samples=n),
                 lambda n: geodesic(3.0, 1.5, 0.5, n_samples=n)):
        with pytest.raises(InvalidArgument, match=rf"^{re.escape(samples)}$"):
            call(MAX_SAMPLES + 1)
    sweeps = rule.format("sweeps", 1, MAX_SWEEPS, MAX_SWEEPS + 1)
    with pytest.raises(InvalidArgument, match=rf"^{re.escape(sweeps)}$"):
        run_chain(StartSequence((0, 2, 5)), 0.7, MAX_SWEEPS + 1, 1)


def test_the_benchmark_and_default_counts_lie_below_the_caps():
    # The benchmark's arctic samples and sample sweeps, read from its source,
    # and the config defaults. Every count in the suite meets the same
    # checks where it is used.
    workloads = (Path(__file__).resolve().parent.parent / "bench" / "workloads.py").read_text()
    bench = {key: int(re.search(rf"^_{key} = ([0-9_]+)$", workloads, re.M)[1])
             for key in ("ARCTIC_SAMPLES", "SAMPLE_SWEEPS")}
    assert bench["ARCTIC_SAMPLES"] < MAX_SAMPLES and ModelConfig.samples < MAX_SAMPLES
    assert bench["SAMPLE_SWEEPS"] < MAX_SWEEPS and ModelConfig.sweeps == 100_000 < MAX_SWEEPS


def test_json_error_carries_position():
    with pytest.raises(ConfigError) as info:
        parse_config('{"model": {\n  "finite": }}')
    (problem,) = info.value.problems
    assert problem.startswith("line 2 column 13")


def test_structure_violations():
    with pytest.raises(ConfigError) as info:
        parse_config("[1, 2]")
    assert info.value.problems == ["top level: expected an object"]

    for doc, problem in (
        ({"model": {"finite": [0, 1]}}, "model.finite: expected an object"),
        ({"model": {"finite": {"sequence": [0, 1]}}}, "model.finite.q: missing"),
        ({"model": {"finite": {"sequence": [0, 1], "q": {"base": 3, "n": 0}}}},
         "model.finite.q.n: n must be at least 1, got 0"),
        ({"model": {"scaled": 3}}, "model.scaled: expected an object"),
        ({"model": {"scaled": {"segments": {"a": 1}, "base": 3}}},
         "model.scaled.segments: expected a list of [number, number] pairs"),
        ({"model": {"scaled": {"segments": [[1, 2]]}}}, "model.scaled.base: missing"),
        ({**FINITE_DOC, "task": [1]}, "task: expected an object"),
        ({**FINITE_DOC, "task": {"out": ""}}, "task.out: expected a non-empty string, got ''"),
        ({"model": {"finite": {"sequence": [0, 1], "q": {"base": "x", "n": 2}}}},
         "model.finite.q.base: expected a number, got 'x'"),
        ({"model": {"scaled": {"segments": [[1.0]], "base": 3}}},
         "model.scaled.segments[0]: expected a [number, number] pair"),
        ({**FINITE_DOC, "task": {"t_values": "abc"}}, "task.t_values: expected a list of finite numbers"),
        # A root that rounds to 1 is not refused as a base of 1; 1 / n past
        # the doubles raised a raw OverflowError.
        ({"model": {"finite": {"sequence": [0, 1], "q": {"base": 3, "n": 10**17}}}},
         "model.finite.q: q rounds to 1 as a double at base 3 and n = 100000000000000000"),
        ({"model": {"finite": {"sequence": [0, 1], "q": {"base": 2, "n": 10**400}}}},
         "model.finite.q: q rounds to 1 as a double at base 2 and n = an integer of 401 digits"),
    ):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert info.value.problems == [problem]

    with pytest.raises(ConfigError) as info:
        parse_config("{}")
    assert info.value.problems == ["model: missing or not an object"]

    both = {"model": {"finite": {"sequence": [0], "q": 2}, "scaled": {}}}
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(both))
    assert any("exactly one of finite/scaled" in p for p in info.value.problems)


def test_sequence_violations():
    for bad in ([1, 2], [0, 2, 2], [0, "x"], "abc", None):
        doc = {"model": {"finite": {"sequence": bad, "q": 2}}}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert any("sequence" in p for p in info.value.problems)
    # Elements are refused in StartSequence's words, one problem each.
    for bad, shown in (([0, True, 3], "[0, True, 3]"), ([0, 1.5], "[0, 1.5]"), ([0, 1.0], "[0, 1.0]")):
        doc = {"model": {"finite": {"sequence": bad, "q": 2}}}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert info.value.problems == [
            f"model.finite.sequence: start sequence must hold integers, got {shown}"]
    doc = {"model": {"finite": {"sequence": {"a": 0}, "q": 2}}}
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert info.value.problems == ["model.finite.sequence: expected a list of integers"]


def test_branch_selector_forms():
    def branch_of(value):
        doc = {
            "model": {"finite": {"sequence": [0, 1], "q": 2}},
            "task": {"branch": value},
        }
        return parse_config(json.dumps(doc)).branch

    for good in ("all", "right", "left", "window:1", "window:12"):
        assert branch_of(good) == good
    for bad in ("window:", "window:x", "top", 3):
        with pytest.raises(ConfigError):
            branch_of(bad)


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(FINITE_DOC), encoding="utf-8")
    assert load_config(str(path)) == parse_config(json.dumps(FINITE_DOC))


def test_config_is_frozen():
    cfg = parse_config(json.dumps(FINITE_DOC))
    with pytest.raises(Exception):
        cfg.seed = 3
    assert isinstance(cfg, ModelConfig)


_NUMBERS = st.integers(-(10**500), 10**500) | st.floats()
_VALUES = st.recursive(
    _NUMBERS | st.none() | st.booleans() | st.text(max_size=8) | st.sampled_from(["3/5", "2/0", "window:2"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _object(keys):
    """A JSON object holding any of keys, each with a value of its strategy, or any other JSON value."""
    return st.fixed_dictionaries({}, optional=keys) | _VALUES


_WEIGHTS = _object({"base": _NUMBERS, "n": _NUMBERS})
_MODELS = _object({"finite": _object({"sequence": _VALUES, "q": _WEIGHTS}),
                   "scaled": _object({"segments": _VALUES, "jumps": _VALUES, "base": _VALUES})})
_TASKS = _object(dict.fromkeys(["branch", "samples", "sweeps", "seed", "t_values", "out", "bogus"], _VALUES))


@given(_object({"model": _MODELS, "task": _TASKS}))
@example({"model": {"finite": {"sequence": [0, 1], "q": {"base": 2, "n": 10**400}}}})
def test_parse_config_raises_only_config_errors(doc):
    # Any JSON document, with any value at any key, is a ModelConfig or a
    # ConfigError. Parsed only: no command runs on what it describes. The
    # example is the one other outcome a 20 000-document fuzz found, an
    # OverflowError from 1 / n past the doubles.
    try:
        assert isinstance(parse_config(json.dumps(doc)), ModelConfig)
    except ConfigError as exc:
        assert exc.problems

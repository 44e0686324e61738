"""Run-configuration schema shared by every CLI subcommand.

One JSON document describes either a finite model (start sequence plus a
weight q) or a scaled model (start-point density plus a base weight), along
with task parameters such as branch selection, sample counts and seeds.
Validation collects every violation before failing so a bad file is fixed
in one pass.  The schema is two tables: ``_MODELS``, one parser per model
kind, and ``_TASK_RULES``, one rule per task key.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Union

from .curves import MAX_SAMPLES
from .errors import ConfigError, InvalidArgument, integer_value, real_value, shown
from .exact import StartSequence, _weight
from .profile import StartDensity, _check_base
from .sampler import MAX_SWEEPS

Weight = Union[Fraction, float]


@dataclass(frozen=True)
class ModelConfig:
    """Validated model plus task parameters for one CLI invocation."""

    kind: str  # "finite" or "scaled"
    sequence: Optional[StartSequence] = None
    q: Optional[Weight] = None
    density: Optional[StartDensity] = None
    base: Optional[float] = None
    branch: str = "all"
    samples: int = 400
    sweeps: int = 100_000
    seed: int = 0
    t_values: tuple[float, ...] = ()
    out: Optional[str] = None


def _unknown_keys(node: dict, allowed, label: str, problems: list[str], where: str = "") -> None:
    extra = set(node) - set(allowed)
    if extra:
        problems.append(f"{label}: unknown keys {sorted(extra)}{where}")


def _as_float(v: Any) -> Optional[float]:
    """A JSON number as a float, an integer beyond the doubles as +-inf; None
    for any other value (JSON booleans are not numbers)."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return None
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _checked(rule, value: Any, label: str, problems: list[str]):
    """rule(value), or None with the rule's refusal listed under label."""
    try:
        return rule(value)
    except InvalidArgument as exc:
        problems.append(f"{label}: {exc}")
        return None


def _parse_weight(value: Any, problems: list[str]) -> Optional[Weight]:
    """Accept an integer, decimal, "num/den" string, or {base, n} pair as q for exact._weight."""
    if isinstance(value, dict):
        _unknown_keys(value, {"base", "n"}, "model.finite.q", problems, " in the base/n form")
        base = _as_float(value.get("base"))
        if base is None:
            problems.append(f"model.finite.q.base: expected a number, got {value.get('base')!r}")
        n = _checked(lambda v: integer_value(v, "n", 1), value.get("n"), "model.finite.q.n", problems)
        if base is None or n is None:
            return None
        # A base <= 0 has no positive root: _weight refuses it as it stands.
        # 1 / n is exact in ints, 0.0 for an n beyond the doubles.
        q = base ** (1 / n) if base > 0.0 else base
        if q == 1.0 and base != 1.0:
            problems.append(f"model.finite.q: q rounds to 1 as a double at base "
                            f"{shown(value['base'])} and n = {shown(n)}")
            return None
    elif isinstance(value, str):
        try:
            q = Fraction(value)
        except (ValueError, ZeroDivisionError):
            problems.append(f"model.finite.q: cannot parse fraction {value!r}")
            return None
    elif _as_float(value) is not None:
        q = value
    else:
        problems.append(f"model.finite.q: expected a number, fraction or {{base, n}}, got {value!r}")
        return None
    q = _checked(_weight, q, "model.finite.q", problems)
    # repr() is the shortest decimal that round-trips, so the literal
    # written in the file is recovered exactly.
    return Fraction(repr(value)) if q is not None and isinstance(value, float) else q


def _parse_finite(node: Any, problems: list[str]) -> dict[str, Any]:
    if not isinstance(node, dict):
        problems.append("model.finite: expected an object")
        return {}
    _unknown_keys(node, {"sequence", "q"}, "model.finite", problems)
    seq = None
    raw = node.get("sequence")
    if not isinstance(raw, list):
        problems.append("model.finite.sequence: expected a list of integers")
    else:
        seq = _checked(StartSequence, raw, "model.finite.sequence", problems)
    q = None
    if "q" not in node:
        problems.append("model.finite.q: missing")
    else:
        q = _parse_weight(node["q"], problems)
    return {"sequence": seq, "q": q}


def _pair_list(node: Any, label: str, problems: list[str]) -> Optional[list[list[Any]]]:
    """node if it is a list of two-item lists, else None with the problem
    listed; the numbers in the pairs are StartDensity's to check."""
    if not isinstance(node, list):
        problems.append(f"{label}: expected a list of [number, number] pairs")
        return None
    for i, item in enumerate(node):
        if not isinstance(item, list) or len(item) != 2:
            problems.append(f"{label}[{i}]: expected a [number, number] pair")
            return None
    return node


def _parse_scaled(node: Any, problems: list[str]) -> dict[str, Any]:
    if not isinstance(node, dict):
        problems.append("model.scaled: expected an object")
        return {}
    _unknown_keys(node, {"segments", "jumps", "base"}, "model.scaled", problems)
    segments = _pair_list(node.get("segments"), "model.scaled.segments", problems)
    jumps: Optional[list[list[Any]]] = []
    if "jumps" in node:
        jumps = _pair_list(node["jumps"], "model.scaled.jumps", problems)
    density = None
    if segments is not None and jumps is not None:
        try:
            density = StartDensity(segments, jumps=jumps)
        except InvalidArgument as exc:
            # The density constructor reports every problem in one message.
            problems.extend(f"model.scaled: {part}" for part in str(exc).split("; "))
    base = None
    if "base" not in node:
        problems.append("model.scaled.base: missing")
    else:
        base = _checked(_check_base, node["base"], "model.scaled.base", problems)
    return {"density": density, "base": base}


# The model kinds: each parser lists its problems and returns the
# ModelConfig fields it fills.
_MODELS = {"finite": _parse_finite, "scaled": _parse_scaled}


def _expect(value: Any, ok: Any, text: str) -> Any:
    """value where ok holds, else InvalidArgument(text.format(value))."""
    if not ok:
        raise InvalidArgument(text.format(value))
    return value


# The task keys, in the order their problems are listed: rule(value, key)
# returns the value or raises InvalidArgument with the text after "task.<key>: ".
_TASK_RULES = {
    "branch": lambda v, _: _expect(
        v, isinstance(v, str) and re.fullmatch(r"all|right|left|window:[0-9]+", v),
        "expected all|right|left|window:<index>, got {!r}"),
    "samples": lambda v, key: integer_value(v, key, 2, MAX_SAMPLES),
    "sweeps": lambda v, key: integer_value(v, key, 1, MAX_SWEEPS),
    "seed": lambda v, key: integer_value(v, key, 0),
    "t_values": lambda v, _: tuple(real_value(x, "t") for x in _expect(
        v, isinstance(v, list), "expected a list of finite numbers")),
    "out": lambda v, _: _expect(v, isinstance(v, str) and v, "expected a non-empty string, got {!r}"),
}


def _parse_task(node: Any, problems: list[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if node is None:
        return out
    if not isinstance(node, dict):
        problems.append("task: expected an object")
        return out
    _unknown_keys(node, _TASK_RULES, "task", problems)
    for key, rule in _TASK_RULES.items():
        if key in node:
            value = _checked(lambda v: rule(v, key), node[key], f"task.{key}", problems)
            if value is not None:
                out[key] = value
    return out


def parse_config(text: str, overrides: Optional[dict[str, Any]] = None) -> ModelConfig:
    """Parse and validate a JSON configuration document.

    ``overrides`` replaces task keys before validation, so command-line
    values meet the rules and messages of the file.  Raises ConfigError
    carrying the complete list of violations; nothing is reported until
    the whole document has been checked.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from None
    except ValueError as exc:  # e.g. an integer literal beyond Python's digit cap
        raise ConfigError([f"unreadable JSON: {exc}"]) from None

    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected an object"])
    _unknown_keys(doc, {"model", "task"}, "top level", problems)

    model = doc.get("model")
    kind, fields = None, {}
    if not isinstance(model, dict):
        problems.append("model: missing or not an object")
    else:
        _unknown_keys(model, _MODELS, "model", problems)
        kinds = [name for name in _MODELS if name in model]
        if len(kinds) != 1:
            problems.append(f"model: exactly one of {'/'.join(_MODELS)} must be present")
        else:
            (kind,) = kinds
            fields = _MODELS[kind](model[kind], problems)

    task = doc.get("task")
    if overrides and (task is None or isinstance(task, dict)):
        task = {**(task or {}), **overrides}
    task = _parse_task(task, problems)
    if problems:
        raise ConfigError(problems)
    return ModelConfig(kind=kind, **fields, **task)


def load_config(path: str, overrides: Optional[dict[str, Any]] = None) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)

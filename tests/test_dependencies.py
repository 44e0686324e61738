"""numpy is the only runtime dependency; the test-only oracles stay out.

The sampler also stays clear of numpy.random: it draws from the run's own
``random.Random``, and importing numpy.random costs several MB of resident memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

PROGRAM = """
import json, sys
import qpaths
from qpaths import StartDensity, StartSequence, arctic_curve, run_chain, t_domains

run_chain(StartSequence((0, 2, 5)), 0.7, 50, seed=1)
d = StartDensity([(1.0, 2.0)])
arctic_curve(d, 3.0, t_domains(d, 3.0)[0], n_samples=20)
print(json.dumps(sorted(name for name in ("scipy", "mpmath", "hypothesis", "numpy.random") if name in sys.modules)))
"""


def test_library_runs_without_test_oracles():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


# A bare package: its submodules load without qpaths/__init__.
BARE_PACKAGE = """
import importlib, json, sys, types
package = types.ModuleType("qpaths")
package.__path__ = [sys.argv[1]]
sys.modules["qpaths"] = package
"""


def run_bare(program: str):
    """The JSON last line of program, run after BARE_PACKAGE."""
    path = str(Path(SRC) / "qpaths")
    proc = subprocess.run([sys.executable, "-c", BARE_PACKAGE + program, path],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


FINITE_N_ALONE = """
from fractions import Fraction
errors, qpoly, exact = (importlib.import_module(f"qpaths.{name}") for name in ("errors", "qpoly", "exact"))
seq = exact.StartSequence((0, 2, 5))
assert exact.one_point_exit_dual(seq, 2, Fraction(7, 10)) == 1 - exact.one_point_table(seq, Fraction(7, 10))[3]
assert exact.one_point_table(seq, 0.7)[0] == 1
print(json.dumps("numpy" in sys.modules))
"""


def test_finite_n_modules_import_no_numpy():
    # The float guard is a plain try/except, and the finite-n layer (errors,
    # qpoly, exact) is pure Python: numpy's error mode lives in the array
    # kernels of curves.
    assert run_bare(FINITE_N_ALONE) is False


PROFILE_ALONE = """
profile = importlib.import_module("qpaths.profile")
d = profile.StartDensity([(1 / 3, 2.0), (1 / 3, 1.0), (1 / 3, 2.0)], jumps=[(2 / 3, 0.5)])
assert d._scaled is None and len(d.windows) == 2
print(json.dumps(sorted(name for name in ("numpy", "qpaths.curves") if name in sys.modules)))
"""


def test_profile_builds_densities_without_numpy_or_curves():
    # StartDensity holds the slot where curves keeps its scaled state, but
    # profile stays a leaf: it imports neither curves nor numpy.
    assert run_bare(PROFILE_ALONE) == []


MODULES_ALONE = """
for name in ("cli", "curves", "actions", "sampler", "geometry", "serialize", "config"):
    importlib.import_module(f"qpaths.{name}")
print(json.dumps("numpy" in sys.modules))
"""


def test_modules_import_no_numpy():
    # numpy loads inside the functions that build or read arrays, on their
    # first call; importing a module loads none of it.
    assert run_bare(MODULES_ALONE) is False


FINITE_COMMANDS = """
import json, os, sys
import qpaths
import qpaths.cli

work = sys.argv[1]
finite = {"model": {"finite": {"sequence": [0, 2, 3, 7], "q": None}}, "task": {"sweeps": 40, "seed": 3}}
loaded = []
for name, q in (("rational", "7/10"), ("float", {"base": 3, "n": 4})):
    finite["model"]["finite"]["q"] = q
    cfg = os.path.join(work, name + ".json")
    with open(cfg, "w") as fh:
        json.dump(finite, fh)
    code = qpaths.cli.main(["exact", "--config", cfg, "--out", os.path.join(work, name)])
    loaded.append([code, "numpy" in sys.modules])
code = qpaths.cli.main(["sample", "--config", cfg, "--out", os.path.join(work, "sample")])
loaded.append([code, "numpy" in sys.modules, "numpy.random" in sys.modules])
print(json.dumps(loaded))
"""


def test_exact_runs_without_numpy_and_sample_loads_it(tmp_path):
    # `qpaths exact` at a rational and at a float q stays in integer and
    # rational arithmetic; `qpaths sample` in the same process then loads
    # numpy, but not numpy.random.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", FINITE_COMMANDS, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last == [[0, False], [0, False], [0, True, False]]

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


FINITE_N_ALONE = """
import importlib, json, sys, types
from fractions import Fraction
# A bare package: its submodules load without qpaths/__init__.
package = types.ModuleType("qpaths")
package.__path__ = [sys.argv[1]]
sys.modules["qpaths"] = package
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
    path = str(Path(SRC) / "qpaths")
    proc = subprocess.run([sys.executable, "-c", FINITE_N_ALONE, path], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) is False

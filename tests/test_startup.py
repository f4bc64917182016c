"""Start-up cost: importing the package and running what the `threshold` and
`kernel_generic` benchmarks run, a normalized two-branch solve and a bubble
sweep load no scipy subpackage those paths never call.  Each command-line
process pays every import, so scipy.integrate is imported only where it is
used (shooting), scipy.optimize only by a reader of `solver.brentq`, and
scipy.interpolate, scipy.linalg and scipy.sparse never: the table
compression, the preconditioner and the Newton solve use numpy alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("scipy.optimize", "scipy.interpolate", "scipy.integrate", "scipy.linalg",
            "scipy.sparse")

CHILD = """
import importlib, json, pkgutil, sys
import numpy as np
import choquard_lab, choquard_lab.cli
for mod in pkgutil.iter_modules(choquard_lab.__path__):
    importlib.import_module("choquard_lab." + mod.name)
after_import = [m for m in DEFERRED if m in sys.modules]

from choquard_lab import riesz, solver
from choquard_lab.functional import ProblemParams
from choquard_lab.grid import RadialField, make_grid

calls = {"dilate": 0, "polish": 0}
for name in calls:
    def counted(self, *a, _orig=getattr(solver._Discrete, name), _name=name, **k):
        calls[_name] += 1
        return _orig(self, *a, **k)
    setattr(solver._Discrete, name, counted)
res = solver.ground_state(ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="lambda", lam=1.0),
                          make_grid(3, 20.0, 200, 2.0))
grid = make_grid(3, 25.0, 200, 2.0)
g = RadialField.from_values(grid, np.exp(-grid.r ** 2), origin=1.0)
V = riesz.convolve(grid, g, 1.5)
P = riesz.potential_at(grid, g, 1.5, [0.5, 2.0])
after_run = [m for m in DEFERRED if m in sys.modules]
branches = solver.normalized_branches(
    ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=6.0, a=1.0),
    make_grid(3, 20.0, 200, 2.0))
after_normalized = [m for m in DEFERRED if m in sys.modules]
from choquard_lab import testfn
radii, reports = testfn.bubble_sweep(3, 3.0, [0.05], p=3.0, alpha=2.0, n=300)
print(json.dumps({"after_import": after_import, "after_run": after_run,
                  "after_normalized": after_normalized,
                  "after_bubbles": [m for m in DEFERRED if m in sys.modules],
                  "bubble": [radii[0] > 0.2, reports[0].riesz > 0],
                  "branches": [b is not None for b in (branches.plus, branches.minus)],
                  "converged": res.converged, "finite": bool(np.all(np.isfinite(P))), **calls}))
"""


def test_import_and_benchmarked_paths_skip_unused_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", f"DEFERRED = {DEFERRED!r}\n" + CHILD],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["after_import"] == []
    # a converged lambda-mode solve with a scale step and a polish, as threshold runs
    assert out["converged"] and out["dilate"] > 0 and out["polish"] > 0
    assert out["finite"]
    assert out["after_run"] == []
    # both fiber points of the mass fiber are solved without scipy.optimize
    assert out["branches"] == [True, True]
    assert out["after_normalized"] == []
    # a mass-calibrated bubble with its four integrals, without scipy.integrate
    # or scipy.optimize
    assert out["bubble"] == [True, True]
    assert out["after_bubbles"] == []


def test_solver_brentq_resolves_on_first_access():
    from scipy.optimize import brentq

    from choquard_lab import solver
    assert solver.brentq is brentq

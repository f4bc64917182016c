"""The benchmark's tracer patches solver attributes by name and reads their
return tuples; this checks those names and tuples against the package, and
that the mat-vecs it counts are all the solvers do.

The tracer rebinds module globals (numpy's dense solve among them), so it
runs in a subprocess and leaves this test session untouched.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from choquard_lab import grid, solver
from tracing import Tracer, instrument

tracer = instrument(Tracer())
from choquard_lab.functional import ProblemParams, multiplier_from_parts
from choquard_lab.profiles import gaussian

g = grid.make_grid(3, 20.0, 200, 2.0)
free = solver._FreeSolver(ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general",
                                        mu=1.0, lam=1.0), g)
_, k_free, _, _ = free.newton(gaussian(g, width=1.5).values)
params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=6.0, a=1.0)
mass = solver._MassSolver(params, g)
u = mass.normalize(gaussian(g, width=1.5).values)
_, _, k_mass, _, _ = mass.newton(u, multiplier_from_parts(params, mass.parts(u)))
print(json.dumps({"k": k_free + k_mass,
                  "newton_iters": tracer.value["solver.newton_iters"],
                  "newton_calls": tracer.count["solver.newton"],
                  "dense_solves": tracer.count["solver.dense_solve"]}))
"""


DESCENT_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from choquard_lab import grid, solver
from tracing import Tracer, instrument

tracer = instrument(Tracer())
from choquard_lab.functional import ProblemParams
from choquard_lab.profiles import gaussian

g = grid.make_grid(3, 20.0, 200, 2.0)
free = solver._FreeSolver(ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=4.0),
                          g)
u, iters, _ = free.descend(gaussian(g, width=1.5).values)
descent = dict(tracer.count)
_, k, _, _ = free.newton(u)
print(json.dumps({"iters": iters, "descent": descent, "k": k,
                  "newton_conv_p": tracer.count["riesz.matvec.conv_p"]
                                   - descent.get("riesz.matvec.conv_p", 0)}))
"""


FLOOR_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from choquard_lab import grid, solver
from tracing import Tracer, instrument

tracer = instrument(Tracer())
from choquard_lab.functional import ProblemParams

# for every projected line-search trial: is it below the floor?
below_floor = []
xi_of = solver._FreeSolver.xi_of
def traced_xi_of(self, u):
    xi = xi_of(self, u)
    if tracer.innermost() == "solver.descend":
        below_floor.append(xi < self.xi_floor())
    return xi
solver._FreeSolver.xi_of = traced_xi_of

g = grid.make_grid(3, 40.0, 400, 2.5)
res = solver.ground_state(ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0),
                          g)
print(json.dumps({"exit_reason": res.exit_reason, "converged": res.converged,
                  "trials": len(below_floor),
                  "below": [i for i, b in enumerate(below_floor) if b],
                  "dense_solves": tracer.count["solver.dense_solve"],
                  "newton_calls": tracer.count["solver.newton"],
                  "descend_calls": tracer.count["solver.descend"]}))
"""


FLOW_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from choquard_lab import grid, solver
from tracing import Tracer, instrument

tracer = instrument(Tracer())
from choquard_lab.functional import ProblemParams

# dilations, trials and parts called by the flow's own loop
inside = {"dilate": 0, "trial": 0, "parts": 0}
def counted(cls, name):
    fn = getattr(cls, name)
    def wrapper(self, *args):
        if tracer.innermost() == "solver.flow":
            inside[name] += 1
        return fn(self, *args)
    setattr(cls, name, wrapper)
for cls, name in ((solver._Discrete, "dilate"), (solver._MassSolver, "trial"),
                  (solver._Discrete, "parts")):
    counted(cls, name)
flows = []
flow = solver._MassSolver.flow
def recorded(self, u0, which):
    out = flow(self, u0, which)
    flows.append([out[1], out[2]])
    return out
solver._MassSolver.flow = recorded

# on this coarse grid the P+ flow ends line-search-exhausted: rejected trials
params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=6.0, a=1.0)
solver.normalized_branches(params, grid.make_grid(3, 20.0, 200, 2.0))
print(json.dumps({"inside": inside, "flows": flows,
                  "flow_iters": tracer.value["solver.flow_iters"]}))
"""


def test_traced_newton_counts_match_returned_steps():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["newton_calls"] == 2
    assert out["k"] > 0
    assert out["newton_iters"] == out["k"]
    # both polishes are matrix-free: GMRES steps, no dense solve
    assert out["dense_solves"] == 0


def test_pinned_descent_ends_at_its_first_trial_below_the_floor():
    # below the threshold the solve collapses toward the floor: the descent
    # stops at the first projected trial under it, and no Newton step follows
    proc = subprocess.run([sys.executable, "-c", FLOOR_SCRIPT, str(ROOT / "bench"),
                           str(ROOT / "src")], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["exit_reason"] == "xi-floor"
    assert not out["converged"]
    assert out["descend_calls"] == 1
    assert out["below"] == [out["trials"] - 1]
    assert out["newton_calls"] == 0
    assert out["dense_solves"] == 0


def test_one_matvec_per_projection_and_per_newton_step():
    proc = subprocess.run([sys.executable, "-c", DESCENT_SCRIPT, str(ROOT / "bench"),
                           str(ROOT / "src")], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    c = out["descent"]
    assert out["iters"] > 0
    # the descent's only dense products are the parts of each projected trial
    assert c["riesz.matvec.parts"] + c.get("riesz.matvec.conv_p", 0) == c["solver.nehari_t"]
    assert out["newton_conv_p"] <= out["k"] + 1


def test_rejected_flow_trial_costs_one_matvec_and_no_dilation():
    proc = subprocess.run([sys.executable, "-c", FLOW_SCRIPT, str(ROOT / "bench"),
                           str(ROOT / "src")], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    c = out["inside"]
    # one flow per branch, P+ then P-
    assert len(out["flows"]) == 2
    assert all(status != "no-fiber-point" for _, status in out["flows"])
    # the start and every accepted iterate are landed: one dilation each
    landed = sum(k + 1 for k, _ in out["flows"])
    assert c["trial"] > landed, "no trial was rejected"
    assert c["dilate"] == landed
    # one parts per trial, one more per landing
    assert c["parts"] == c["trial"] + landed
    assert out["flow_iters"] == sum(k for k, _ in out["flows"])

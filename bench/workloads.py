"""The four benchmark workloads: seeded inputs, set-up, the timed call and its check.

Seed 0 reproduces the acceptance configuration exactly.  Other seeds jitter
only the inputs named below, by a few percent, inside ranges where the
output check still holds; a wider jitter would change how much work a run
does (for `threshold`, which bisection midpoints fall on which side of the
threshold) and turn the seed into the main source of run-to-run spread.

Every workload returns a `Check`: `attempted` checked units, `failed` units
whose operation produced no checkable value (an exception, a NaN potential,
an incomplete multiplicity row), `incorrect` units whose value failed its
check, and `accuracy_err`, the distance to an exact reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gamma

import numpy as np

NAMES = ("threshold", "multiplicity", "bubbles", "kernel_generic")


@dataclass
class Check:
    attempted: int
    failed: int = 0
    incorrect: int = 0
    accuracy_err: float = float("nan")
    details: dict = field(default_factory=dict)
    predicate_evals: int = 0


def _jitter(rng, value, rel):
    return float(value * np.exp(rng.uniform(-rel, rel)))


def make_inputs(name: str, seed: int) -> dict:
    """Inputs of workload `name` at `seed`; pure function of its arguments."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "threshold":
        lo, hi = (0.5, 16.0) if seed == 0 else (_jitter(rng, 0.5, 0.02),
                                               _jitter(rng, 16.0, 0.02))
        return {"range": (lo, hi)}
    if name == "multiplicity":
        return {"nus": (0.4, 0.5)}
    if name == "bubbles":
        lo = 0.006 if seed == 0 else _jitter(rng, 0.006, 0.02)
        return {"eps": tuple(float(e) for e in np.geomspace(lo, 10.0 * lo, 7))}
    if name == "kernel_generic":
        if seed == 0:
            amps, sigmas = (1.0,), (1.0,)
        else:
            amps = tuple(float(a) for a in rng.uniform(0.5, 1.5, 3))
            sigmas = tuple(float(s) for s in rng.uniform(0.9, 1.1, 3))
        # probe radii as fractions of the window (r[20], 0.8 r_max) of each grid;
        # uniform, so some land just inside a panel end (see README: potential_at)
        fracs = tuple(tuple(float(f) for f in rng.uniform(0.0, 1.0, 32)) for _ in range(2))
        return {"amps": amps, "sigmas": sigmas, "probe_fracs": fracs}
    raise ValueError(f"unknown workload {name!r}")


# --------------------------------------------------------------- threshold

def setup_threshold(inputs):
    from choquard_lab import grid
    from choquard_lab.constants import interaction_bound_constant, sobolev_constant
    from choquard_lab.functional import ProblemParams
    base = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0)
    S_alpha = sobolev_constant(3) * interaction_bound_constant(3, 1.0) ** (-(3 - 2) / (3 + 1.0))
    crit = (2 + 1.0) / (2 * (3 + 1.0)) * S_alpha ** ((3 + 1.0) / (2 + 1.0))
    return {"base": base, "crit": crit, "grid": grid.make_grid(3, 40.0, 1000, 2.5)}


def run_threshold(inputs, state):
    from choquard_lab import lab
    return lab.scan_threshold(state["base"], inputs["range"], state["crit"], state["grid"],
                              delta_frac=0.005, rel_tol=0.15)


def check_threshold(inputs, state, res) -> Check:
    """The test_08 bracket check on the n=1000 grid.

    accuracy_err: relative distance of the level at the lower range end,
    deep in the non-attainment regime, to the exact critical level.
    """
    crit = state["crit"]
    lo, hi = res.bracket
    pinned = all(lev >= crit - res.delta for c, lev, conv, xi in res.scan if c <= lo)
    attained = all(lev < crit - res.delta for c, lev, conv, xi in res.scan
                   if c >= hi and conv)
    ok = (not res.degenerate and lo < hi <= lo * 1.15 * (1 + 1e-12) and pinned and attained)
    floor_level = [lev for c, lev, conv, xi in res.scan if c == inputs["range"][0]][0]
    return Check(attempted=1, incorrect=0 if ok else 1,
                 accuracy_err=abs(floor_level - crit) / crit,
                 predicate_evals=len(res.scan),
                 details={"bracket": [lo, hi], "crit": crit, "scan": [list(s) for s in res.scan]})


# ------------------------------------------------------------ multiplicity

def setup_multiplicity(inputs):
    from choquard_lab import grid
    from choquard_lab.functional import ProblemParams
    params = ProblemParams(N=4, alpha=1.0, p=1.4, q=4.0, mode="normalized-sobolev",
                           nu=0.5, a=1.0)
    return {"params": params, "grid": grid.make_grid(4, 60.0, 1100, 3.0)}


def run_multiplicity(inputs, state):
    from choquard_lab import lab
    # pass-through that keeps each P- branch for the accuracy check; it records
    # the return value and nothing else, so the untraced run stays untraced
    inner = lab.normalized_branches
    branches = []

    def keep(*args, **kwargs):
        out = inner(*args, **kwargs)
        branches.append(out)
        return out

    lab.normalized_branches = keep
    try:
        rows = lab.multiplicity_experiment(state["params"], list(inputs["nus"]), state["grid"],
                                           level_tol=1e-4, residual_tol=1e-3, field_tol=1e-2)
    finally:
        lab.normalized_branches = inner
    return rows, branches


def check_multiplicity(inputs, state, out) -> Check:
    """Each nu row: status "ok" (else failed) and two_solutions (else incorrect).

    accuracy_err: largest multiplier-identity defect of the P- branches.
    """
    rows, branches = out
    failed = sum(r.status != "ok" for r in rows)
    incorrect = sum(r.status == "ok" and not r.two_solutions for r in rows)
    defects = [b.minus.multiplier_identity_defect for b in branches if b.minus is not None]
    return Check(attempted=len(inputs["nus"]), failed=failed + len(inputs["nus"]) - len(rows),
                 incorrect=incorrect,
                 accuracy_err=max(defects) if defects else float("nan"),
                 details={"rows": [[r.nu, r.status, r.coupling, r.branch_level,
                                    r.ground_level, r.field_distance, r.two_solutions]
                                   for r in rows],
                          "minus_defects": defects})


# ----------------------------------------------------------------- bubbles

def setup_bubbles(inputs):
    return {}   # bubble_sweep builds one grid per eps itself, inside the timed call


def run_bubbles(inputs, state):
    from choquard_lab import testfn
    return testfn.bubble_sweep(3, 3.0, np.array(inputs["eps"]), p=3.0, alpha=2.0,
                               n=1600, grading=3.0)


def check_bubbles(inputs, state, out) -> Check:
    """Each eps report has finite positive integrals; the Riesz rate is eps^2.

    accuracy_err: |fitted Riesz slope - 2| (the test_10 rate check).
    """
    from choquard_lab.asymptotics import rate_fit
    radii, reports = out
    eps = np.array(inputs["eps"])
    bad = sum(not (np.isfinite(r.riesz) and r.riesz > 0 and np.isfinite(r.kinetic)
                   and r.kinetic > 0) for r in reports)
    fit = rate_fit(eps, [r.riesz for r in reports], min_span_decades=0.9)
    err = abs(float(fit.slope) - 2.0)
    return Check(attempted=len(eps) + 1, failed=len(eps) - len(reports),
                 incorrect=bad + (err >= 0.2), accuracy_err=err,
                 details={"slope": float(fit.slope), "radii": list(map(float, radii))})


# ---------------------------------------------------------- kernel_generic

KERNEL_GRIDS = ((1.5, 600), (0.5, 400))     # (alpha, n) on N=3, r_max=25, grading 2
PROBE_TOL = 1e-3


def _exact_gaussian_potential(r, alpha, amps, sigmas, N=3):
    """I_alpha * sum_k c_k exp(-r^2/s_k^2), in closed form through 1F1."""
    from scipy.special import hyp1f1
    r = np.asarray(r, dtype=float)
    pref = gamma((N - alpha) / 2) / (2 ** alpha * gamma(N / 2))
    return sum(c * s ** alpha * pref * hyp1f1((N - alpha) / 2, N / 2, -(r / s) ** 2)
               for c, s in zip(amps, sigmas))


def setup_kernel_generic(inputs):
    from choquard_lab import grid as cl_grid
    cases = []
    amps, sigmas = inputs["amps"], inputs["sigmas"]
    g = lambda r: sum(c * np.exp(-(np.asarray(r) / s) ** 2) for c, s in zip(amps, sigmas))
    for (alpha, n), fracs in zip(KERNEL_GRIDS, inputs["probe_fracs"]):
        grd = cl_grid.make_grid(3, 25.0, n, 2.0)
        f = cl_grid.RadialField.from_values(grd, g(grd.r), origin=float(g(0.0)))
        lo, hi = grd.r[20], 0.8 * grd.r_max
        cases.append((alpha, grd, f, lo + np.array(fracs) * (hi - lo)))
    return {"cases": cases}


def run_kernel_generic(inputs, state):
    from choquard_lab import riesz
    out = []
    for alpha, grd, f, probes in state["cases"]:
        V = riesz.convolve(grd, f, alpha)
        out.append((V, riesz.potential_at(grd, f, alpha, probes)))
    return out


def check_kernel_generic(inputs, state, out) -> Check:
    """Each off-grid probe: finite (else failed) and within PROBE_TOL relative.

    accuracy_err: largest relative error of the on-grid potential against
    the closed form over the window r[20] < r < 0.8 r_max, over both grids.
    """
    amps, sigmas = inputs["amps"], inputs["sigmas"]
    failed = incorrect = 0
    worst = 0.0
    details = {}
    for (alpha, grd, f, probes), (V, P) in zip(state["cases"], out):
        window = (grd.r > grd.r[20]) & (grd.r < 0.8 * grd.r_max)
        ex = _exact_gaussian_potential(grd.r[window], alpha, amps, sigmas)
        err = float(np.max(np.abs(V.values[window] - ex) / ex))
        worst = max(worst, err)
        ex0 = _exact_gaussian_potential(0.0, alpha, amps, sigmas)
        exp_ = _exact_gaussian_potential(probes, alpha, amps, sigmas)
        finite = np.isfinite(P)
        perr = np.abs(P[finite] - exp_[finite]) / exp_[finite]
        failed += int(np.sum(~finite))
        incorrect += int(np.sum(perr >= PROBE_TOL))
        details[f"alpha={alpha}"] = {
            "window_err": err, "origin_err": float(abs(V.origin - ex0) / ex0),
            "probe_err_max": float(perr.max()) if perr.size else None,
            "nan_probes": [float(t) for t in probes[~finite]]}
    incorrect += int(worst >= PROBE_TOL)
    return Check(attempted=sum(len(c[3]) for c in state["cases"]), failed=failed,
                 incorrect=incorrect, accuracy_err=worst, details=details)


def planned_units(name: str, inputs: dict) -> int:
    """Checked units of a run, also when the workload call raises."""
    return {"threshold": lambda: 1,
            "multiplicity": lambda: len(inputs["nus"]),
            "bubbles": lambda: len(inputs["eps"]) + 1,
            "kernel_generic": lambda: sum(map(len, inputs["probe_fracs"]))}[name]()


WORKLOADS = {
    "threshold": (setup_threshold, run_threshold, check_threshold),
    "multiplicity": (setup_multiplicity, run_multiplicity, check_multiplicity),
    "bubbles": (setup_bubbles, run_bubbles, check_bubbles),
    "kernel_generic": (setup_kernel_generic, run_kernel_generic, check_kernel_generic),
}

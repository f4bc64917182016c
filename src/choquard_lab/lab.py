"""Experiment driver: coupling scans in the rescaled frames, threshold
bisection, the multiplicity pipeline, and run persistence.

Large-coupling studies run in the frequency-one frame (the coupling moves
onto the weak term as a small coefficient), which keeps every solve O(1)
and lets one reference solve at zero coefficient serve as the asymptotic
constant with the same discretization bias as the scan itself.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .constants import CoefficientTable
from .errors import BracketFailure, ChoquardLabError, InvalidConfiguration, InvalidParameter
from .functional import _MODES, ProblemParams
from .grid import RadialGrid, integrate
from .solver import _best, ground_state, normalized_branches, second_solution_via_rescale

__all__ = ["ThresholdResult", "RunManifest", "ScanPoint", "coupling_gap_scan",
           "scan_threshold", "multiplicity_experiment", "check_out_root", "persist_run",
           "MultiplicityRow"]


# ------------------------------------------------------------- frame scans

@dataclass(frozen=True)
class ScanPoint:
    coupling: float
    frame_level: float
    level: float            # original-frame ground-state level m(coupling)
    gap: float              # reference frame level minus frame level
    converged: bool


def frame_exponents(which: str, p: float, q: float):
    """(coefficient exponent, level exponent, weak term) of the frame: the
    weak term's coefficient (`mu` or `lam` of the frame params, the other
    one is 1) is coupling^e_c, and the original-frame level is coupling^e_l
    times the frame level; e_c is also the predicted decay rate of the
    level gap."""
    if which == "lambda":
        # w = lam^(1/(q-2)) v: Riesz coefficient becomes eps = lam^(-2(p-1)/(q-2))
        return -2.0 * (p - 1) / (q - 2), -2.0 / (q - 2), "mu"
    if which == "mu":
        # w = mu^(1/(2(p-1))) v: power coefficient becomes delta = mu^(-(q-2)/(2(p-1)))
        return -(q - 2) / (2.0 * (p - 1)), -1.0 / (p - 1), "lam"
    raise InvalidParameter("which must be 'lambda' or 'mu'")


def coupling_gap_scan(N: int, alpha: float, p: float, q: float, couplings,
                      grid: RadialGrid, which: str = "lambda"):
    """Ground-state levels along a large-coupling scan, in the rescaled frame.

    Returns (reference frame level at zero coefficient, list of ScanPoint).
    The reference solve runs the gaussian seed, each later one the previous
    field.  The gap column is the quantity whose decay rate the scan probes.
    InvalidParameter unless every coupling is finite and > 0.
    """
    e_coeff, e_level, weak = frame_exponents(which, p, q)
    couplings = sorted(float(c) for c in couplings)
    if not all(0 < c < np.inf for c in couplings):      # NaN included
        raise InvalidParameter(f"couplings must be finite and > 0: {couplings}")

    def frame_params(coeff):
        return ProblemParams(N=N, alpha=alpha, p=p, q=q, mode="general",
                             **{"mu": 1.0, "lam": 1.0, weak: coeff})

    ref = ground_state(frame_params(0.0), grid)
    points = []
    warm = ref.field
    # scan from the largest coupling (smallest perturbation) downward
    for c in sorted(couplings, reverse=True):
        coeff = c ** e_coeff
        res = ground_state(frame_params(coeff), grid, seeds=(warm,))
        warm = res.field
        points.append(ScanPoint(coupling=c, frame_level=res.level,
                                level=c ** e_level * res.level,
                                gap=ref.level - res.level,
                                converged=res.converged))
    points.sort(key=lambda s: s.coupling)
    return ref.level, points


# --------------------------------------------------------------- threshold

@dataclass(frozen=True)
class ThresholdResult:
    bracket: tuple
    delta: float
    scan: tuple            # (coupling, level, converged, xi) for every solve
    degenerate: bool = False


def _coupled_params(base: ProblemParams, coupling: float) -> ProblemParams:
    """base with the one coupling of its free mode (`_MODES`) set to `coupling`."""
    coupled = [name for name in _MODES[base.mode] if name is not None]
    if base.normalized or len(coupled) != 1:
        raise InvalidParameter("threshold scans operate on the lambda or mu modes")
    return replace(base, **{coupled[0]: coupling})


def scan_threshold(base: ProblemParams, coupling_range: tuple, crit_level: float,
                   grid: RadialGrid, delta_frac: float = 0.005,
                   rel_tol: float = 0.05) -> ThresholdResult:
    """Bisect the coupling on the attainment predicate.

    Attained: converged solve with level < crit_level - delta.  Pinned:
    level within delta of crit_level (with concentration, a finite grid
    always "attains" something; pinning plus non-convergence is the desk
    signature of non-existence; such a solve's `exit_reason` reads
    `xi-floor`: its descent, concentrating by scale steps, tried to go below
    the grid's resolvability floor, or its polish stepped below the floor.
    On a fine grid, test_08's n = 2000, most pinned descents hand off to the
    polish at the descent tolerance above the floor, the rest crawl to
    `max-iters` after a rejected scale step, and the polish's first step
    falls below the floor).  The first solve, at the upper end, runs the
    cold seeds gaussian, bubble(0.5), bubble(0.1).  Every later solve has
    one seed, the converged field at the bracket's attained end, the
    smallest coupling attained so far; when that solve does not attain, the
    two bubble seeds run as fallback, and of the two results the solver's
    selection key (`solver._best`: converged first, then the lower level,
    then the warm result) keeps one.  A pinned field is never a start: its
    descent would end at the floor at once.  At most 40 couplings are solved.
    InvalidParameter unless 0 < lo < hi, rel_tol > 0 and delta_frac >= 0.
    """
    seeds = ("gaussian", ("bubble", 0.5), ("bubble", 0.1))
    delta = delta_frac * abs(crit_level)
    lo, hi = float(coupling_range[0]), float(coupling_range[1])
    if not 0 < lo < hi:
        raise InvalidParameter("need 0 < lo < hi")
    if not (0 < rel_tol < np.inf and 0 <= delta_frac < np.inf):     # NaN included
        raise InvalidParameter(f"need finite rel_tol > 0 and delta_frac >= 0: {rel_tol}, {delta_frac}")
    scan = []

    def attained(res):
        return bool(res.converged and res.level < crit_level - delta)

    def solve(c, start=None):
        params = _coupled_params(base, c)
        res = ground_state(params, grid, seeds=seeds if start is None else (start,))
        if start is not None and not attained(res):
            res = _best((res, ground_state(params, grid, seeds=seeds[1:])))
        scan.append((c, res.level, res.converged, res.concentration_scale))
        return attained(res), res

    ok_hi, res_hi = solve(hi)
    if not ok_hi:
        raise BracketFailure(
            f"upper endpoint {hi} not attained (level {res_hi.level:.6g} vs crit {crit_level:.6g})",
            scan_table=tuple(scan))
    warm = res_hi.field
    ok_lo, _ = solve(lo, warm)
    if ok_lo:
        return ThresholdResult(bracket=(lo, lo), delta=delta, scan=tuple(scan),
                               degenerate=True)
    c_lo, c_hi = lo, hi
    evals = 2
    while c_hi / c_lo > 1 + rel_tol and evals < 40:
        mid = float(np.sqrt(c_lo * c_hi))
        ok, res = solve(mid, warm)
        if ok:
            c_hi, warm = mid, res.field
        else:
            c_lo = mid
        evals += 1
    return ThresholdResult(bracket=(c_lo, c_hi), delta=delta, scan=tuple(scan))


# ------------------------------------------------------------ multiplicity

@dataclass(frozen=True)
class MultiplicityRow:
    nu: float
    status: str
    lambda_nu: float = np.nan
    coupling: float = np.nan
    branch_level: float = np.nan          # E(candidate) without mass term
    ground_level: float = np.nan          # E(ground state) without mass term
    branch_residual: float = np.nan
    ground_residual: float = np.nan
    field_distance: float = np.nan
    two_solutions: bool = False


def multiplicity_experiment(params_template: ProblemParams, nus, grid: RadialGrid,
                            coeffs: CoefficientTable | None = None,
                            level_tol: float = 1e-4,
                            residual_tol: float = 1e-3,
                            field_tol: float = 1e-2):
    """For each nu: normalized branches -> rescale -> ground state at the
    same effective coupling -> compare the two candidate solutions.

    Rows where a stage fails are marked and the experiment continues; rows
    outside the smallness gate are marked gated-off.
    """
    pt = params_template
    if not pt.normalized:
        raise InvalidParameter("multiplicity experiment needs a normalized mode")
    # the mode's smallness gate, nu a^power at most its bound, is the HLS one
    # when the table leaves the Riesz term uncoupled (critical)
    hls = _MODES[pt.mode][0] is None
    bound = None if coeffs is None else (coeffs.nu_bound_hls if hls else coeffs.nu_bound_sob)
    power = pt.q * (1 - pt.gamma_q) if hls else 2 * pt.p * (1 - pt.eta_p)
    rows = []
    for nu in nus:
        if bound is not None and nu * pt.a ** power > bound:
            status = "gated-off: smallness bound for the two-branch regime violated"
            rows.append(MultiplicityRow(nu=float(nu), status=status))
            continue
        params = replace(pt, nu=float(nu))
        branches = normalized_branches(params, grid)
        minus = branches.minus
        if minus is None or not minus.converged:
            reason = branches.minus_absent_reason or "mountain-pass branch not converged"
            rows.append(MultiplicityRow(nu=float(nu), status=f"incomplete: {reason}"))
            continue
        try:
            resc = second_solution_via_rescale(minus)
        except ChoquardLabError as e:
            rows.append(MultiplicityRow(nu=float(nu), status=f"incomplete: {e}",
                                        lambda_nu=minus.lambda_nu))
            continue
        gs = ground_state(resc.params_effective, resc.field.grid,
                          seeds=("gaussian", ("bubble", 0.5)))
        g_no_mass = gs.level - 0.5 * integrate(gs.field.grid, gs.field.values ** 2)
        u1 = resc.field.values
        u2 = gs.field.values
        dist = float(np.max(np.abs(u1 - u2)) / max(np.max(np.abs(u1)), 1e-300))
        two = (resc.pde_residual_scaled < residual_tol
               and gs.pde_residual_scaled < residual_tol
               and gs.converged
               and abs(resc.energy_no_mass - g_no_mass) > 3 * level_tol
               and dist > field_tol)
        rows.append(MultiplicityRow(nu=float(nu), status="ok",
                                    lambda_nu=minus.lambda_nu,
                                    coupling=resc.coupling,
                                    branch_level=resc.energy_no_mass,
                                    ground_level=g_no_mass,
                                    branch_residual=resc.pde_residual_scaled,
                                    ground_residual=gs.pde_residual_scaled,
                                    field_distance=dist,
                                    two_solutions=bool(two)))
    return rows


# -------------------------------------------------------------- persistence

@dataclass
class RunManifest:
    config: dict
    code_version: str
    wall_clock: float = 0.0
    artifacts: dict = field(default_factory=dict)
    created: float = field(default_factory=time.time)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls(**json.loads(text))


def check_out_root(out_root) -> Path:
    """The output root as a Path; an InvalidConfiguration when its parent is
    not a directory, or when it exists and is not one."""
    root = Path(out_root)
    if not root.parent.is_dir():
        raise InvalidConfiguration(f"output root parent {root.parent} is not a directory")
    if root.exists() and not root.is_dir():
        raise InvalidConfiguration(f"output root {root} is not a directory")
    return root


def persist_run(manifest: RunManifest, artifacts: dict, out_root) -> Path:
    """Deterministic run layout: manifest.json, constants.json, solves/,
    fits/, tables/.

    `artifacts` maps category -> {name -> payload}; payloads are JSON-able
    dicts or CSV strings (extension chosen accordingly).
    """
    root = check_out_root(out_root)
    root.mkdir(parents=True, exist_ok=True)
    written = {}
    for category, items in artifacts.items():
        if category == "constants":
            path = root / "constants.json"
            path.write_text(items if isinstance(items, str) else json.dumps(items, indent=2, sort_keys=True))
            written["constants"] = str(path)
            continue
        sub = root / category
        sub.mkdir(exist_ok=True)
        for name, payload in items.items():
            if isinstance(payload, str):
                path = sub / f"{name}.csv"
                path.write_text(payload)
            else:
                path = sub / f"{name}.json"
                path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float))
            written.setdefault(category, {})[name] = str(path)
    manifest = replace(manifest, artifacts=written)
    (root / "manifest.json").write_text(manifest.to_json())
    return root

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
from .functional import ProblemParams, compute_parts
from .grid import RadialGrid
from .solver import (SolverOptions, ground_state, normalized_branches,
                     second_solution_via_rescale)

__all__ = ["ThresholdResult", "RunManifest", "ScanPoint", "coupling_gap_scan",
           "scan_threshold", "monotonicity_scan", "multiplicity_experiment",
           "persist_run", "MonotonicityReport", "MultiplicityRow"]


# ------------------------------------------------------------- frame scans

@dataclass(frozen=True)
class ScanPoint:
    coupling: float
    frame_coeff: float
    frame_level: float
    level: float            # original-frame ground-state level m(coupling)
    gap: float              # reference frame level minus frame level
    converged: bool


def _frame_params(N, alpha, p, q, which, coeff):
    if which == "lambda":
        # w = lam^(1/(q-2)) v: Riesz coefficient becomes eps = lam^(-2(p-1)/(q-2))
        return ProblemParams(N=N, alpha=alpha, p=p, q=q, mode="general",
                             mu=coeff, lam=1.0)
    # w = mu^(1/(2(p-1))) v: power coefficient becomes delta = mu^(-(q-2)/(2(p-1)))
    return ProblemParams(N=N, alpha=alpha, p=p, q=q, mode="general",
                         mu=1.0, lam=coeff)


def frame_coefficient(which: str, coupling: float, p: float, q: float) -> float:
    if which == "lambda":
        return coupling ** (-2.0 * (p - 1) / (q - 2))
    return coupling ** (-(q - 2) / (2.0 * (p - 1)))


def level_back_map(which: str, coupling: float, frame_level: float, p: float, q: float) -> float:
    if which == "lambda":
        return coupling ** (-2.0 / (q - 2)) * frame_level
    return coupling ** (-1.0 / (p - 1)) * frame_level


def coupling_gap_scan(N: int, alpha: float, p: float, q: float, couplings,
                      grid: RadialGrid, which: str = "lambda",
                      opts: SolverOptions | None = None):
    """Ground-state levels along a large-coupling scan, in the rescaled frame.

    Returns (reference frame level at zero coefficient, list of ScanPoint),
    warm-starting each solve from the previous one.  The gap column is the
    quantity whose decay rate the scan probes.
    """
    if which not in ("lambda", "mu"):
        raise InvalidParameter("which must be 'lambda' or 'mu'")
    couplings = sorted(float(c) for c in couplings)
    opts = opts or SolverOptions()
    ref_params = _frame_params(N, alpha, p, q, which, 0.0)
    ref = ground_state(ref_params, grid, init="gaussian", opts=opts)
    points = []
    warm = ref.field
    # scan from the largest coupling (smallest perturbation) downward
    for c in sorted(couplings, reverse=True):
        coeff = frame_coefficient(which, c, p, q)
        params = _frame_params(N, alpha, p, q, which, coeff)
        res = ground_state(params, grid, init=warm, opts=opts)
        warm = res.field
        points.append(ScanPoint(coupling=c, frame_coeff=coeff,
                                frame_level=res.level,
                                level=level_back_map(which, c, res.level, p, q),
                                gap=ref.level - res.level,
                                converged=res.converged))
    points.sort(key=lambda s: s.coupling)
    return ref.level, points


# --------------------------------------------------------------- threshold

@dataclass(frozen=True)
class ThresholdResult:
    mode: str
    bracket: tuple
    crit_level: float
    delta: float
    scan: tuple            # (coupling, level, converged, xi) for every solve
    grid_key: tuple
    degenerate: bool = False


def _coupled_params(base: ProblemParams, coupling: float) -> ProblemParams:
    if base.mode == "lambda":
        return base.with_couplings(lam=coupling)
    if base.mode == "mu":
        return base.with_couplings(mu=coupling)
    raise InvalidParameter("threshold scans operate on the lambda or mu modes")


def scan_threshold(base: ProblemParams, coupling_range: tuple, crit_level: float,
                   grid: RadialGrid, delta_frac: float = 0.005, rel_tol: float = 0.05,
                   opts: SolverOptions | None = None,
                   schedule=("gaussian", ("bubble", 0.5), ("bubble", 0.1)),
                   max_evals: int = 40) -> ThresholdResult:
    """Bisect the coupling on the attainment predicate.

    Attained: converged solve with level < crit_level - delta.  Pinned:
    level within delta of crit_level (with concentration, a finite grid
    always "attains" something; pinning plus non-convergence is the desk
    signature of non-existence).  Warm starts run from large coupling
    (existent side) toward small.
    """
    opts = opts or SolverOptions()
    delta = delta_frac * abs(crit_level)
    lo, hi = float(coupling_range[0]), float(coupling_range[1])
    if not 0 < lo < hi:
        raise InvalidParameter("need 0 < lo < hi")
    scan = []
    warm: dict = {}

    def attained(c, init_field=None):
        params = _coupled_params(base, c)
        if init_field is not None:
            res = ground_state(params, grid, init=init_field, opts=opts)
            if not res.converged or res.level >= crit_level - delta:
                res2 = ground_state(params, grid, schedule=schedule, opts=opts)
                if res2.level < res.level:
                    res = res2
        else:
            res = ground_state(params, grid, schedule=schedule, opts=opts)
        scan.append((c, res.level, res.converged, res.concentration_scale))
        warm["field"] = res.field
        return bool(res.converged and res.level < crit_level - delta), res

    ok_hi, res_hi = attained(hi)
    if not ok_hi:
        raise BracketFailure(
            f"upper endpoint {hi} not attained (level {res_hi.level:.6g} vs crit {crit_level:.6g})",
            scan_table=tuple(scan))
    ok_lo, _ = attained(lo, init_field=warm["field"])
    if ok_lo:
        return ThresholdResult(mode=base.mode, bracket=(lo, lo), crit_level=crit_level,
                               delta=delta, scan=tuple(scan), grid_key=grid.key,
                               degenerate=True)
    c_lo, c_hi = lo, hi
    evals = 2
    while c_hi / c_lo > 1 + rel_tol and evals < max_evals:
        mid = float(np.sqrt(c_lo * c_hi))
        ok, _ = attained(mid, init_field=warm.get("field"))
        if ok:
            c_hi = mid
        else:
            c_lo = mid
        evals += 1
    return ThresholdResult(mode=base.mode, bracket=(c_lo, c_hi), crit_level=crit_level,
                           delta=delta, scan=tuple(scan), grid_key=grid.key)


# ------------------------------------------------------------ monotonicity

@dataclass(frozen=True)
class MonotonicityReport:
    couplings: tuple
    levels: tuple
    violations: tuple       # (index, size) pairs beyond tolerance
    tolerance: float
    ok: bool


def monotonicity_scan(N: int, alpha: float, p: float, q: float, couplings,
                      grid: RadialGrid, which: str = "lambda",
                      tolerance: float = 1e-8,
                      opts: SolverOptions | None = None) -> MonotonicityReport:
    """Assert the ground-state level is nonincreasing in the coupling."""
    couplings = sorted(float(c) for c in couplings)
    if len(couplings) < 8:
        raise InvalidParameter("monotonicity scan needs at least 8 grid points")
    _, points = coupling_gap_scan(N, alpha, p, q, couplings, grid, which=which, opts=opts)
    levels = [pt.level for pt in points]
    viol = []
    for i in range(len(levels) - 1):
        rise = levels[i + 1] - levels[i]
        if rise > tolerance * max(abs(levels[i]), 1.0):
            viol.append((i, rise))
    return MonotonicityReport(couplings=tuple(couplings), levels=tuple(levels),
                              violations=tuple(viol), tolerance=tolerance,
                              ok=not viol)


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
                            opts: SolverOptions | None = None,
                            level_tol: float = 1e-4,
                            residual_tol: float = 1e-3,
                            field_tol: float = 1e-2):
    """For each nu: normalized branches -> rescale -> ground state at the
    same effective coupling -> compare the two candidate solutions.

    Rows where a stage fails are marked and the experiment continues; rows
    outside the smallness gate are marked gated-off.
    """
    if not params_template.normalized:
        raise InvalidParameter("multiplicity experiment needs a normalized mode")
    opts = opts or SolverOptions()
    rows = []
    for nu in nus:
        params = params_template.with_couplings(nu=float(nu))
        if coeffs is not None:
            gate = None
            if params.mode == "normalized-hls" and coeffs.nu_bound_hls is not None:
                if nu * params.a ** (params.q * (1 - params.gamma_q)) > coeffs.nu_bound_hls:
                    gate = "smallness bound for the two-branch regime violated"
            if params.mode == "normalized-sobolev" and coeffs.nu_bound_sob is not None:
                if nu * params.a ** (2 * params.p * (1 - params.eta_p)) > coeffs.nu_bound_sob:
                    gate = "smallness bound for the two-branch regime violated"
            if gate:
                rows.append(MultiplicityRow(nu=float(nu), status=f"gated-off: {gate}"))
                continue
        branches = normalized_branches(params, grid, opts=opts)
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
                          schedule=("gaussian", ("bubble", 0.5)), opts=opts)
        gparts = compute_parts(resc.params_effective, gs.field, use_deriv=False)
        g_no_mass = gs.level - 0.5 * gparts.mass
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
    seeds: dict
    wall_clock: float = 0.0
    artifacts: dict = field(default_factory=dict)
    created: float = field(default_factory=time.time)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls(**json.loads(text))


def persist_run(manifest: RunManifest, artifacts: dict, out_root) -> Path:
    """Deterministic run layout: manifest.json, constants.json, solves/,
    fits/, tables/.

    `artifacts` maps category -> {name -> payload}; payloads are JSON-able
    dicts or CSV strings (extension chosen accordingly).
    """
    root = Path(out_root)
    if not root.parent.exists():
        raise InvalidConfiguration(f"output root parent {root.parent} does not exist")
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

"""Solution objects: local ground states by shooting, Nehari-constrained
descent for the free problems, the two mass-constrained branches, and the
second-solution rescaling.

The descent scheme is an explicit preconditioned gradient step with
positive-part truncation and Nehari (or mass-fiber) reprojection, finished
by a Newton polish on the discrete strong form; the discretization is
variationally consistent (the stiffness form is the energy's kinetic
term), so the full gradient vanishes at the constrained minimizer and the
strong-form residual can be driven to solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded
from scipy.optimize import brentq  # noqa: F401  (wrapped by bench/tracing.py)

from .errors import (InvalidConfiguration, InvalidParameter, NoProjection,
                     RescaleInconsistency, ShootingFailure)
from .functional import (ProblemParams, Parts, compute_parts, energy_from_parts,
                         fiber_energy, _defects_from_parts, _fiber_derivative,
                         _fiber_roots, _ray_root)
from .grid import RadialField, RadialGrid, apply_stiffness, make_grid
from .profiles import gaussian, smoothstep_cutoff, talenti, talenti_peak
from .riesz import kernel_table

__all__ = ["GroundStateResult", "NormalizedBranchResult", "NormalizedBranches",
           "RescaledSolution", "shoot_local_ground_state", "ground_state",
           "normalized_branches", "multiplier_check", "second_solution_via_rescale",
           "SolverOptions"]


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 400
    flow_iters: int = 150
    newton_iters: int = 30
    residual_tol: float = 1e-9       # scale-relative target for the polish
    converged_tol: float = 1e-6      # scale-relative residual gate for `converged`
    flow_tol: float = 1e-4           # hand-off from flow to Newton
    identity_tol: float = 1e-3       # Nehari/Pohozaev defect gate for `converged`
    sup_residual_tol: float = 1e-6   # spec metric: max|F| / max|u|
    step: float = 1.0
    positivity_floor: float = 1e-9   # Jacobian clamp where u < floor * max(u)
    min_scale_nodes: int = 24        # resolvability floor: xi >= r[min_scale_nodes]


@dataclass(frozen=True)
class GroundStateResult:
    params: ProblemParams
    field: RadialField
    level: float
    nehari_defect: float
    pohozaev_defect: float
    pde_residual: float          # max|F| / max|u| on the window
    pde_residual_scaled: float   # max|F| / max term scale on the window
    iterations: int
    converged: bool
    init_tag: str
    radially_nonincreasing: bool
    concentration_scale: float


@dataclass(frozen=True)
class NormalizedBranchResult:
    params: ProblemParams
    field: RadialField
    branch: str                  # "P+" or "P-"
    level: float
    lambda_nu: float
    multiplier_identity_defect: float
    pde_residual_scaled: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class NormalizedBranches:
    plus: NormalizedBranchResult | None
    minus: NormalizedBranchResult | None
    plus_absent_reason: str | None = None
    minus_absent_reason: str | None = None


# ---------------------------------------------------------------- shooting

def shoot_local_ground_state(N: int, q: float, r_max: float = 25.0, n: int = 1200,
                             grading: float = 2.0, b_tol: float = 1e-13,
                             b_max: float = 1e4) -> RadialField:
    """Positive decaying solution of -Q'' - (N-1)/r Q' + Q = Q^(q-1).

    Bisection on Q(0) between the crossing (overshoot) and the
    turn-back-up (undershoot) behaviors, then one dense integration
    sampled onto a graded grid together with Q'.
    """
    if N < 3:
        raise InvalidParameter("N must be >= 3")
    if not 2 < q < 2 * N / (N - 2):
        raise InvalidParameter(f"q={q} must be subcritical: (2, {2*N/(N-2)})")
    span = max(40.0, r_max + 10.0)

    def rhs(r, y):
        Q, P = y
        return [P, Q - np.sign(Q) * abs(Q) ** (q - 1) - (N - 1) / r * P]

    def start(b):
        r0 = 1e-8
        return r0, [b + (b - b ** (q - 1)) * r0 ** 2 / (2 * N),
                    (b - b ** (q - 1)) * r0 / N]

    def classify(b):
        r0, y0 = start(b)
        cross = lambda r, y: y[0]
        cross.terminal, cross.direction = True, -1
        turn = lambda r, y: y[1]
        turn.terminal, turn.direction = True, 1
        sol = solve_ivp(rhs, (r0, span), y0, events=[cross, turn],
                        rtol=1e-12, atol=1e-14)
        if sol.t_events[0].size:
            return 1
        if sol.t_events[1].size:
            return -1
        return 0

    b_hi = 2.0
    while classify(b_hi) != 1:
        b_hi *= 1.6
        if b_hi > b_max:
            raise ShootingFailure("no overshoot bracket below b_max")
    b_lo = 1.0 + 1e-8
    while classify(b_lo) == 1:
        b_lo = 1.0 + (b_lo - 1.0) / 2
        if b_lo - 1.0 < 1e-14:
            raise ShootingFailure("no undershoot bracket above Q(0)=1")
    for _ in range(200):
        mid = 0.5 * (b_lo + b_hi)
        if b_hi - b_lo < b_tol * b_hi:
            break
        c = classify(mid)
        if c == 1:
            b_hi = mid
        else:
            b_lo = mid
    b = 0.5 * (b_lo + b_hi)
    r0, y0 = start(b)
    floor = lambda r, y: y[0] - 1e-15
    floor.terminal, floor.direction = True, -1
    sol = solve_ivp(rhs, (r0, span), y0, events=[floor], rtol=1e-12, atol=1e-16,
                    dense_output=True)
    grid = make_grid(N, r_max, n, grading)
    r_end = sol.t[-1]
    vals = np.zeros(grid.n)
    derivs = np.zeros(grid.n)
    inside = grid.r <= r_end
    interp = sol.sol(grid.r[inside])
    vals[inside] = np.maximum(interp[0], 0.0)
    derivs[inside] = interp[1]
    # splice the decaying far-field mode (r^(1-N/2) K_(N/2-1)(r)) beyond the
    # point where the profile is small: bisection error excites the growing
    # mode exponentially and would pollute the tail otherwise
    from scipy.special import kv, kvp
    nu = N / 2.0 - 1.0
    mode = lambda rr: rr ** (1 - N / 2.0) * kv(nu, rr)
    dmode = lambda rr: ((1 - N / 2.0) * rr ** (-N / 2.0) * kv(nu, rr)
                        + rr ** (1 - N / 2.0) * kvp(nu, rr))
    small = np.nonzero(vals < 1e-4 * b)[0]
    first_tail = None
    for i in small:
        if grid.r[i] > 5.0:
            first_tail = i
            break
    if first_tail is not None and 0 < first_tail < grid.n:
        rm = grid.r[first_tail - 1]
        A = vals[first_tail - 1] / mode(rm)
        tail_r = grid.r[first_tail:]
        vals[first_tail:] = A * mode(tail_r)
        derivs[first_tail:] = A * dmode(tail_r)
    return RadialField.from_values(grid, vals, deriv=derivs, origin=b)


# ------------------------------------------------------- discrete problems

class _Discrete:
    """Grid-bound arrays and the strong form shared by the free and
    normalized solvers; `shift` is the coefficient of u in the gradient
    (`mass_coeff` for the free modes, the multiplier for the normalized)."""

    def __init__(self, params: ProblemParams, grid: RadialGrid, opts: SolverOptions):
        self.params = params
        self.grid = grid
        self.W = grid.weights_full
        sa = grid.sphere_area
        self.Ad = grid.stiff_diag * sa
        self.Ao = grid.stiff_off * sa
        self.tab = kernel_table(grid, params.alpha) if params.riesz_coeff != 0 else None
        self.n = grid.n
        self.ncut = int(np.searchsorted(grid.r, 0.95 * grid.r_max))
        # residual window: drop the last 5% of radius, and start at the
        # resolvability floor -- below it the stiffness/weight ratio amplifies
        # roundoff on graded grids and no trusted structure lives there anyway
        self.nlo = min(opts.min_scale_nodes, grid.n // 4)

    def xi_of(self, u):
        """Talenti-matched concentration scale from the peak value."""
        peak = float(np.max(u))
        if peak <= 0:
            return np.inf
        return (talenti_peak(self.grid.N) / peak) ** (2.0 / (self.grid.N - 2))

    def xi_floor(self, opts):
        k = min(opts.min_scale_nodes, self.n - 1)
        return self.grid.r[k]

    def conv_p(self, u):
        up = u ** self.params.p
        return (self.tab.G @ up) / self.W

    @cached_property
    def conv_matrix(self):
        """Pointwise convolution operator G / W of the Newton Jacobian."""
        return self.tab.G / self.W[:, None]

    def parts(self, u) -> Parts:
        K = float(np.dot(u, apply_stiffness(self.Ad, self.Ao, u)))
        M = float(np.dot(self.W, u * u))
        if self.tab is not None:
            up = u ** self.params.p
            R = float(up @ (self.tab.G @ up))
        else:
            R = 0.0
        P = float(np.dot(self.W, u ** self.params.q))
        return Parts(kinetic=K, mass=M, riesz=R, power=P)

    def energy(self, u):
        return energy_from_parts(self.params, self.parts(u))

    def grad(self, u, shift):
        """Strong-form gradient F(u) = -lap u + shift u - cR conv(u^p) u^(p-1) - cP u^(q-1)."""
        p = self.params
        F = apply_stiffness(self.Ad, self.Ao, u) / self.W + shift * u
        if self.tab is not None and p.riesz_coeff:
            F -= p.riesz_coeff * self.conv_p(u) * u ** (p.p - 1)
        if p.power_coeff:
            F -= p.power_coeff * u ** (p.q - 1)
        return F

    def term_scale(self, u, shift):
        """Largest single term of the strong form on the residual window."""
        p = self.params
        s = np.abs(apply_stiffness(self.Ad, self.Ao, u) / self.W) + abs(shift) * np.abs(u)
        if self.tab is not None and p.riesz_coeff:
            s += p.riesz_coeff * np.abs(self.conv_p(u)) * u ** (p.p - 1)
        if p.power_coeff:
            s += p.power_coeff * u ** (p.q - 1)
        return float(np.max(s[self.nlo: self.ncut]))

    def residual(self, u, shift):
        """F = grad(u, shift) and max |F| on the residual window over the term scale."""
        F = self.grad(u, shift)
        m = float(np.max(np.abs(F[self.nlo: self.ncut])))
        return F, m / max(self.term_scale(u, shift), 1e-300)

    def jacobian(self, u, shift, opts: SolverOptions, border):
        """Dense Jacobian of W * grad(., shift) at u, Dirichlet at the last node.

        A `border` vector (or None) is appended as the last row and column:
        the constraint gradient of a bordered KKT system.
        """
        p = self.params
        n, W = self.n, self.W
        J = np.zeros((n, n) if border is None else (n + 1, n + 1))
        Jn = J[:n, :n]
        idx = np.arange(n)
        Jn[idx, idx] = self.Ad + shift * W
        Jn[idx[:-1], idx[1:]] = self.Ao
        Jn[idx[1:], idx[:-1]] = self.Ao
        mask = u > opts.positivity_floor * max(u.max(), 1e-300)
        um = np.where(mask, u, 1.0)
        if self.tab is not None and p.riesz_coeff:
            D1 = np.where(mask, u ** (p.p - 1), 0.0)
            Jnl = p.p * (D1[:, None] * self.conv_matrix * D1[None, :])
            if p.p < 2:
                # u^(p-2) is unbounded at small u: regularize the diagonal
                ureg = u + 1e-8 * max(u.max(), 1e-300)
                diag_nl = (p.p - 1) * self.conv_p(u) * ureg ** (p.p - 2)
            else:
                diag_nl = np.where(mask, (p.p - 1) * self.conv_p(u) * um ** (p.p - 2), 0.0)
            Jn -= p.riesz_coeff * (W[:, None] * Jnl + np.diag(W * diag_nl))
        if p.power_coeff:
            Jq = np.where(mask, (p.q - 1) * um ** (p.q - 2), 0.0)
            Jn -= p.power_coeff * np.diag(W * Jq)
        if border is not None:
            J[:n, n] = border
            J[n, :n] = border
        J[n - 1, :] = 0.0
        J[:, n - 1] = 0.0
        J[n - 1, n - 1] = 1.0
        return J

    def solve_shifted(self, shift, rhs):
        """(A + shift W) x = rhs with Dirichlet at the last node."""
        n = self.n
        ab = np.zeros((3, n))
        diag = self.Ad + shift * self.W
        off = self.Ao.copy()
        diag[-1] = 1.0
        off[-1] = 0.0
        ab[0, 1:] = off
        ab[1] = diag
        ab[2, :-1] = off
        b = rhs.copy()
        b[-1] = 0.0
        return solve_banded((1, 1), ab, b)

    def field(self, u) -> RadialField:
        return RadialField.from_values(self.grid, u)


class _FreeSolver(_Discrete):
    """Nehari-constrained descent + Newton polish for the free modes."""

    def residuals(self, u):
        """(max |F| / max u, max |F| / term scale) on the residual window."""
        F, scaled = self.residual(u, self.params.mass_coeff)
        return float(np.max(np.abs(F[self.nlo: self.ncut]))) / max(np.max(u), 1e-300), scaled

    def nehari_t(self, u):
        return _ray_root(self.params, self.parts(u))

    def descend(self, u, opts: SolverOptions):
        t = self.nehari_t(u)
        if t is None:
            raise NoProjection("initial field admits no Nehari projection")
        u = t * u
        hist = 0
        res_scaled = np.inf
        for k in range(opts.max_iters):
            g = self.grad(u, self.params.mass_coeff)
            d = self.solve_shifted(max(self.params.mass_coeff, 1e-10), g * self.W)
            E0 = self.energy(u)
            endgame = res_scaled < opts.flow_tol
            tau = opts.step
            accepted = False
            floor = self.xi_floor(opts)
            for _ in range(40):
                v = np.maximum(u - tau * d, 0.0)
                v[-1] = 0.0
                tv = self.nehari_t(v)
                if tv is not None and self.xi_of(tv * v) >= floor:
                    v = tv * v
                    if endgame:
                        rv = self.residuals(v)[1]
                        if rv < res_scaled:
                            accepted = True
                            break
                    elif self.energy(v) <= E0 + 1e-14 * abs(E0):
                        accepted = True
                        break
                tau *= 0.5
            if not accepted:
                break
            u = v
            hist = k + 1
            res_scaled = self.residuals(u)[1]
            if res_scaled < opts.flow_tol * 1e-2:
                break
        return u, hist

    def newton(self, u, opts: SolverOptions):
        mc = self.params.mass_coeff
        res_best = np.inf
        best = u
        for k in range(opts.newton_iters):
            F, res = self.residual(u, mc)
            # Newton on the strong form is not residual-monotone (positive-part
            # clipping re-shapes the tail); keep the best iterate, tolerate the
            # early transient, and only bail on genuine blow-up
            if not np.isfinite(res) or (k > 5 and res > 1e6 * res_best):
                return best, k, res_best
            if res < res_best:
                best, res_best = u, res
            if res < opts.residual_tol:
                return u, k, res
            J = self.jacobian(u, mc, opts, None)
            rhs = -(self.W * F)
            rhs[-1] = 0.0
            try:
                du = np.linalg.solve(J, rhs)
            except np.linalg.LinAlgError:
                return best, k, res_best
            cand = np.maximum(u + du, 0.0)
            cand[-1] = 0.0
            if self.xi_of(cand) < self.xi_floor(opts):
                return best, k, res_best
            u = cand
        return best, opts.newton_iters, res_best


def _initial_field(tag, grid: RadialGrid) -> tuple[str, np.ndarray]:
    if isinstance(tag, RadialField):
        if not np.any(tag.values):
            raise InvalidConfiguration("zero field is not a valid initialization")
        return "supplied", tag(grid.r)
    if tag == "gaussian":
        return "gaussian", gaussian(grid, width=1.5).values
    if isinstance(tag, tuple) and tag and tag[0] == "bubble":
        eps = float(tag[1])
        vals = talenti(grid, eps).values * smoothstep_cutoff(4.0 * grid.r / grid.r_max)
        return f"bubble({eps:g})", vals
    raise InvalidConfiguration(f"unknown initialization {tag!r}")


def ground_state(params: ProblemParams, grid: RadialGrid, init="gaussian",
                 schedule=None, opts: SolverOptions | None = None) -> GroundStateResult:
    """Lowest-level Nehari-constrained critical point over the init schedule."""
    if params.normalized:
        raise InvalidParameter("use normalized_branches for the mass-constrained modes")
    opts = opts or SolverOptions()
    seeds = list(schedule) if schedule is not None else [init]
    best = None
    for tag in seeds:
        name, u0 = _initial_field(tag, grid)
        solver = _FreeSolver(params, grid, opts)
        u, iters = solver.descend(u0, opts)
        u, k_newton, res = solver.newton(u, opts)
        parts = solver.parts(u)
        level = energy_from_parts(params, parts)
        nd, pd = _defects_from_parts(params, parts)
        res_sup, res_scaled = solver.residuals(u)
        fld = solver.field(u)
        umax = u.max()
        noninc = bool(np.all(np.diff(u) <= 1e-8 * umax + 1e-300))
        xi = solver.xi_of(u)
        conv = ((res_sup < opts.sup_residual_tol or res_scaled < opts.converged_tol)
                and abs(nd) < opts.identity_tol and abs(pd) < opts.identity_tol
                and xi >= solver.xi_floor(opts))
        result = GroundStateResult(params=params, field=fld, level=level,
                                   nehari_defect=nd, pohozaev_defect=pd,
                                   pde_residual=res_sup, pde_residual_scaled=res_scaled,
                                   iterations=iters + k_newton, converged=bool(conv),
                                   init_tag=name, radially_nonincreasing=noninc,
                                   concentration_scale=float(xi))
        if best is None:
            best = result
        elif result.converged and not best.converged:
            best = result
        elif result.converged == best.converged and result.level < best.level:
            best = result
    return best


# --------------------------------------------------- normalized two-branch

class _MassSolver(_Discrete):
    """Fiber-projected constrained flow + KKT Newton for the normalized modes."""

    def mass(self, u):
        return float(np.dot(self.W, u * u))

    def normalize(self, u):
        m = self.mass(u)
        if m <= 0:
            raise InvalidConfiguration("field collapsed to zero during the flow")
        return u * np.sqrt(self.params.a ** 2 / m)

    def fiber_points(self, parts: Parts):
        d, d2, _ = _fiber_derivative(self.params, parts, "mass")
        return [(t0, 1 if d2(t0) > 0 else -1) for t0 in _fiber_roots(d, 1e-6, 1e6, 4001)]

    def fiber_point(self, parts: Parts, which):
        """The first fiber minimum (which = 1) or the last maximum (which = -1)."""
        match = [t for t, kind in self.fiber_points(parts) if kind == which]
        if not match:
            return None
        return match[0] if which == 1 else match[-1]

    def dilate(self, u, t, max_loss: float = 0.1):
        """Mass-preserving dilation; None when too much mass leaves the window."""
        fld = RadialField.from_values(self.grid, u)
        v = t ** (self.grid.N / 2.0) * fld(np.minimum(t * self.grid.r, self.grid.r_max))
        v[t * self.grid.r > self.grid.r_max] = 0.0
        if t < 1.0:
            kept = self.mass(v)
            ref = self.mass(u)
            if ref > 0 and kept < (1.0 - max_loss) * ref:
                return None
        return v

    def project(self, u, which):
        """Dilate to the fiber critical point of the requested kind."""
        t = self.fiber_point(self.parts(u), which)
        if t is None:
            return None
        v = self.dilate(u, t)
        if v is None:
            return None
        return self.normalize(v)

    def objective(self, u, which):
        """Flow objective: energy at the fiber point (max for P-, value for P+)."""
        parts = self.parts(u)
        t = self.fiber_point(parts, which)
        if t is None:
            return None
        return float(fiber_energy(self.params, parts, "mass", t))

    def multiplier(self, u):
        g = self.grad(u, 0.0)
        return -float(np.dot(self.W, g * u)) / self.params.a ** 2

    def flow(self, u0, which, opts: SolverOptions):
        u = self.normalize(u0)
        v = self.project(u, which)
        if v is None:
            return None, 0, "no-fiber-point"
        kappa_floor = 0.02
        for k in range(opts.flow_iters):
            parts = self.parts(v)
            lam = self.multiplier(v)
            res = self.residual(v, lam)[1]
            if res < opts.flow_tol:
                return v, k, "handoff"
            g = self.grad(v, lam)
            kappa = max(lam, kappa_floor * parts.kinetic / self.params.a ** 2)
            d = self.solve_shifted(kappa, g * self.W)
            d -= np.dot(self.W, d * v) / self.params.a ** 2 * v
            obj0 = self.objective(v, which)
            tau = 0.5
            accepted = False
            for _ in range(20):
                cand = np.maximum(v - tau * d, 0.0)
                cand[-1] = 0.0
                if cand.max() > 0:
                    cand = self.normalize(cand)
                    proj = self.project(cand, which)
                    if proj is not None:
                        obj = self.objective(proj, which)
                        if obj is not None and obj <= obj0 + 1e-13 * abs(obj0):
                            accepted = True
                            break
                tau *= 0.5
            if not accepted:
                return v, k, "handoff"
            v = proj
        return v, opts.flow_iters, "handoff"

    def newton(self, u, lam, opts: SolverOptions):
        n = self.n
        W = self.W
        a2 = self.params.a ** 2
        best = (u, lam)
        res_best = np.inf
        for k in range(opts.newton_iters):
            F1, res = self.residual(u, lam)
            F2 = 0.5 * (self.mass(u) - a2)
            if not np.isfinite(res) or (k > 5 and res > 1e6 * res_best):
                return best[0], best[1], k, res_best
            if res < res_best:
                best, res_best = (u, lam), res
            if res < opts.residual_tol and abs(F2) < 1e-13 * a2:
                return u, lam, k, res
            J = self.jacobian(u, lam, opts, border=W * u)
            rhs = np.concatenate((-(W * F1), [-F2]))
            rhs[n - 1] = 0.0
            try:
                sol = np.linalg.solve(J, rhs)
            except np.linalg.LinAlgError:
                return best[0], best[1], k, res_best
            u = np.maximum(u + sol[:n], 0.0)
            u[-1] = 0.0
            lam = lam + sol[n]
        return best[0], best[1], opts.newton_iters, res_best


def _identity_coefficient(params: ProblemParams) -> float:
    if params.mode == "normalized-hls":
        ts = params.two_star
        return 2 * (ts - params.q) / (params.q * (ts - 2))
    return (params.N + params.alpha - params.p * (params.N - 2)) / (2 * params.p)


def multiplier_check(result: NormalizedBranchResult) -> float:
    """Relative defect of the Nehari+Pohozaev multiplier identity."""
    params = result.params
    parts = compute_parts(params, result.field, use_deriv=False)
    coeff = _identity_coefficient(params)
    if params.mode == "normalized-hls":
        pred = coeff * params.nu * parts.power
    else:
        pred = coeff * params.nu * parts.riesz
    lhs = result.lambda_nu * params.a ** 2
    return float((lhs - pred) / lhs) if lhs != 0 else np.inf


def _branch_result(solver: _MassSolver, u, lam, iters, res, which,
                   opts: SolverOptions) -> NormalizedBranchResult:
    params = solver.params
    parts = solver.parts(u)
    level = energy_from_parts(params, parts)
    fld = solver.field(u)
    branch = "P+" if which == 1 else "P-"
    conv = res < opts.converged_tol and lam > 0
    out = NormalizedBranchResult(params=params, field=fld, branch=branch, level=level,
                                 lambda_nu=float(lam), multiplier_identity_defect=np.nan,
                                 pde_residual_scaled=float(res), iterations=iters,
                                 converged=bool(conv))
    return replace(out, multiplier_identity_defect=abs(multiplier_check(out)))


def _bubble_seed(solver: _MassSolver, scales) -> np.ndarray | None:
    """Cutoff-bubble seed with the best fiber-max level over a short scale scan."""
    grid = solver.grid
    best, best_obj = None, np.inf
    for s in scales:
        vals = talenti(grid, s).values * smoothstep_cutoff(4.0 * grid.r / grid.r_max)
        try:
            u = solver.normalize(vals)
        except InvalidConfiguration:
            continue
        obj = solver.objective(u, -1)
        if obj is not None and obj < best_obj:
            best, best_obj = u, obj
    return best


def normalized_branches(params: ProblemParams, grid: RadialGrid,
                        opts: SolverOptions | None = None,
                        bubble_scales=(0.05, 0.1, 0.2, 0.5, 1.0),
                        plus_widths=None) -> NormalizedBranches:
    """The P+ local minimizer (when the fiber geometry admits one) and the
    P- mountain-pass branch of the mass-constrained problem."""
    if not params.normalized:
        raise InvalidParameter("normalized_branches needs a normalized mode")
    opts = opts or SolverOptions()
    solver = _MassSolver(params, grid, opts)
    if plus_widths is None:
        plus_widths = (1.5, grid.r_max / 3.0)

    plus = minus = None
    plus_reason = minus_reason = None

    # P+ branch: spread seeds over a width scan, preferring those whose own
    # fiber minimum sits at a representable dilation, then flow + polish
    candidates = []
    for wdt in np.geomspace(plus_widths[0], plus_widths[-1], 6):
        u0 = solver.normalize(gaussian(grid, width=float(wdt)).values)
        tplus = solver.fiber_point(solver.parts(u0), 1)
        if tplus is not None:
            candidates.append((abs(np.log(tplus)), u0))
    if not candidates:
        plus_reason = "fiber admits no local minimum at this (nu, a)"
    else:
        candidates.sort(key=lambda c: c[0])
        for _, u0 in candidates[:3]:
            u, it_flow, status = solver.flow(u0, 1, opts)
            if u is None:
                plus_reason = status
                continue
            lam = solver.multiplier(u)
            u, lam, it_newton, res = solver.newton(u, lam, opts)
            cand = _branch_result(solver, u, lam, it_flow + it_newton, res, 1, opts)
            if plus is None or (cand.converged and (not plus.converged or cand.level < plus.level)):
                plus = cand
                plus_reason = None
            if plus is not None and plus.converged:
                break

    # P- branch: cutoff-bubble seed from a scale pre-scan, fiber local maximum
    u0 = _bubble_seed(solver, bubble_scales)
    if u0 is None:
        minus_reason = "no bubble seed admits a fiber maximum"
    else:
        u, it_flow, status = solver.flow(u0, -1, opts)
        if u is None:
            minus_reason = status
        else:
            lam = solver.multiplier(u)
            u, lam, it_newton, res = solver.newton(u, lam, opts)
            minus = _branch_result(solver, u, lam, it_flow + it_newton, res, -1, opts)

    return NormalizedBranches(plus=plus, minus=minus,
                              plus_absent_reason=plus_reason,
                              minus_absent_reason=minus_reason)


# -------------------------------------------------- second solution rescale

@dataclass(frozen=True)
class RescaledSolution:
    field: RadialField
    params_effective: ProblemParams
    coupling: float
    pde_residual_scaled: float
    level: float                 # full action I at the effective coupling
    energy_no_mass: float        # E = I - 1/2 ||u||_2^2 (the comparison energy)
    source: NormalizedBranchResult


def second_solution_via_rescale(result: NormalizedBranchResult,
                                n: int | None = None, grading: float | None = None,
                                residual_tol: float = 5e-3) -> RescaledSolution:
    """Map a converged P- normalized solution to a frequency-1 solution.

    v(x) = lam^(-(N-2)/4) u(lam^(-1/2) x) solves the free problem with
    effective coupling nu * lam^(-(2N-q(N-2))/4) (HLS-critical mode) or
    nu * lam^(-(N+alpha-p(N-2))/2) (Sobolev-critical mode).
    """
    if not result.converged or result.lambda_nu <= 0:
        raise InvalidParameter("rescale needs a converged branch with lambda_nu > 0")
    params = result.params
    lam = result.lambda_nu
    N = params.N
    old = result.field
    g0 = old.grid
    scale = np.sqrt(lam)
    new_rmax = g0.r_max * scale
    grid = make_grid(N, new_rmax, n or g0.n, grading or g0.grading)
    amp = lam ** (-(N - 2) / 4.0)
    vals = amp * old(grid.r / scale)
    if params.mode == "normalized-hls":
        coupling = params.nu * lam ** (-(2 * N - params.q * (N - 2)) / 4.0)
        eff = ProblemParams(N=N, alpha=params.alpha, p=params.p, q=params.q,
                            mode="lambda", lam=coupling)
    else:
        coupling = params.nu * lam ** (-(N + params.alpha - params.p * (N - 2)) / 2.0)
        eff = ProblemParams(N=N, alpha=params.alpha, p=params.p, q=params.q,
                            mode="mu", mu=coupling)
    solver = _FreeSolver(eff, grid, SolverOptions())
    u = np.maximum(vals, 0.0)
    u[-1] = 0.0
    res_sup, res_scaled = solver.residuals(u)
    if res_scaled > residual_tol:
        raise RescaleInconsistency(
            f"rescaled candidate residual {res_scaled:.2e} exceeds {residual_tol:.0e}; "
            "multiplier extraction or interpolation is inconsistent")
    parts = solver.parts(u)
    level = energy_from_parts(eff, parts)
    return RescaledSolution(field=solver.field(u), params_effective=eff,
                            coupling=float(coupling),
                            pde_residual_scaled=float(res_scaled), level=float(level),
                            energy_no_mass=float(level - 0.5 * parts.mass),
                            source=result)

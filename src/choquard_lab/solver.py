"""Solution objects: local ground states by shooting, Nehari-constrained
descent for the free problems, the two mass-constrained branches, and the
second-solution rescaling.

The descent scheme is an explicit preconditioned gradient step with
positive-part truncation and Nehari (or mass-fiber) reprojection, finished
by a Newton polish on the discrete strong form; the discretization is
variationally consistent (the stiffness form is the energy's kinetic
term), so the full gradient vanishes at the constrained minimizer and the
strong-form residual can be driven to solver tolerance.  The free descent
also steps along the scale, the noncompact direction of the critical
problems: while its iterates drift one way in concentration it dilates
them that way, by the amount the exact scaling laws of the four parts
predict best, so a state below the threshold reaches the resolvability
floor in a few iterations instead of hundreds of gradient steps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import (InvalidConfiguration, InvalidParameter, NoProjection,
                     RescaleInconsistency, ShootingFailure)
from .functional import (ProblemParams, Parts, compute_parts, energy_from_parts,
                         fiber_energy, identity_prediction, multiplier_from_parts,
                         scaled_parts, _defects_from_parts, _fiber_critical_points,
                         _ray_root, _values)
from .grid import RadialField, RadialGrid, apply_stiffness, make_grid
from .profiles import cutoff_bubble, gaussian, talenti_scale
from .riesz import kernel_table

__all__ = ["GroundStateResult", "NormalizedBranchResult", "NormalizedBranches",
           "RescaledSolution", "shoot_local_ground_state", "ground_state",
           "normalized_branches", "multiplier_check", "second_solution_via_rescale"]


# One solver configuration serves every experiment.  The settings are module
# constants, read when a solver method runs.
_MAX_ITERS = 400            # descent iterations
_FLOW_ITERS = 150           # normalized-flow iterations
_NEWTON_ITERS = 30
_RESIDUAL_TOL = 1e-9        # scale-relative target for the polish
_CONVERGED_TOL = 1e-6       # scale-relative residual gate for `converged`
_FLOW_TOL = 1e-4            # hand-off from flow to Newton
_IDENTITY_TOL = 1e-3        # Nehari/Pohozaev defect gate for `converged`
_POSITIVITY_FLOOR = 1e-9    # Jacobian clamp where u < floor * max(u)
_MIN_SCALE_NODES = 24       # resolvability floor: xi >= r[_MIN_SCALE_NODES]
# Newton stagnation: stop when the best residual has not halved in this many
# steps, a mean contraction worse than 0.5^(1/3) ~ 0.79 per step.  That is
# close to Deuflhard's restricted monotonicity bound 3/4 for a full Newton
# step (Newton Methods for Nonlinear Problems, 2004), read on the residual
# instead of on simplified corrections, which would cost a solve each.  On
# test_08's n = 2000 grid converged polishes reach their attainable residual
# (1e-9 to 1e-8, above _RESIDUAL_TOL) in one step, then wander in that range.
_STALL_STEPS = 3
_KRYLOV_DIM = 60            # one GMRES cycle; test_08's steps take 5-13 at n = 1000, 2000
_KRYLOV_RTOL = 1e-10        # forcing term a decade below _RESIDUAL_TOL (Eisenstat & Walker 1996)
# Scale steps of the free descent: the dilations u(arg x) it weighs, log-spaced
# in [1/2, 2] with arg = 1 in the middle; the iterates over which xi must move
# one way before it dilates that way; and how far above the floor a dilation
# may take xi.  The margin leaves the last stretch to ordinary steps, which
# relax the shape a dilation leaves behind: with none, threshold's pinned
# descents at lam = 0.5 (n = 1000) exit 0.1-0.2 % above the plain descent's levels.
_SCALE_ARGS = 2.0 ** np.linspace(-1.0, 1.0, 41)
_DRIFT_ITERATES = 3
_SCALE_MARGIN = 1.03

_log = logging.getLogger(__name__)


def __getattr__(name):
    # `solver.brentq` stays resolvable for bench/tracing.py, which wraps it,
    # without importing scipy.optimize at start-up; ROADMAP item 1 deletes
    # this hook together with that tracer line.
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class GroundStateResult:
    """A free-mode critical point from `ground_state`.

    `converged` is the one verdict of both solvers, `_Discrete.verdict`;
    `pde_residual` is reported and does not gate.  `exit_reason` is why the
    last stage stopped: the descent's `tol`, `line-search-exhausted`,
    `xi-floor` or `max-iters`, or Newton's `tol`, `newton-stalled`,
    `newton-blowup`, `xi-floor` or `max-iters`.
    """

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
    exit_reason: str


@dataclass(frozen=True)
class NormalizedBranchResult:
    """One branch of `normalized_branches`.

    `converged` is the one verdict of both solvers, `_Discrete.verdict`;
    `multiplier_identity_defect` (relative to lambda a^2) is reported and
    does not gate.
    """

    params: ProblemParams
    field: RadialField
    branch: str                  # "P+" or "P-"
    level: float
    lambda_nu: float
    multiplier_identity_defect: float
    pde_residual_scaled: float
    iterations: int
    converged: bool
    exit_reason: str             # the polish's, or the flow's if the polish made no step


@dataclass(frozen=True)
class NormalizedBranches:
    plus: NormalizedBranchResult | None
    minus: NormalizedBranchResult | None
    plus_absent_reason: str | None = None
    minus_absent_reason: str | None = None


# ---------------------------------------------------------------- shooting

def shoot_local_ground_state(N: int, q: float, r_max: float = 25.0, n: int = 1200,
                             grading: float = 2.0) -> RadialField:
    """Positive decaying solution of -Q'' - (N-1)/r Q' + Q = Q^(q-1).

    Bisection on Q(0) between the crossing (overshoot) and the
    turn-back-up (undershoot) behaviors, then one dense integration
    sampled onto a graded grid together with Q'.
    """
    if N < 3:
        raise InvalidParameter("N must be >= 3")
    if not 2 < q < 2 * N / (N - 2):
        raise InvalidParameter(f"q={q} must be subcritical: (2, {2*N/(N-2)})")
    from scipy.integrate import solve_ivp
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
        if b_hi > 1e4:
            raise ShootingFailure("no overshoot bracket below Q(0) = 1e4")
    b_lo = 1.0 + 1e-8
    while classify(b_lo) == 1:
        b_lo = 1.0 + (b_lo - 1.0) / 2
        if b_lo - 1.0 < 1e-14:
            raise ShootingFailure("no undershoot bracket above Q(0)=1")
    for _ in range(200):
        mid = 0.5 * (b_lo + b_hi)
        if b_hi - b_lo < 1e-13 * b_hi:
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

@dataclass(frozen=True)
class _IterateParts(Parts):
    """The parts of a solver iterate u and conv = (G @ u^p) / W, the Riesz
    potential its strong form needs (None without a Riesz term)."""

    conv: np.ndarray | None = field(default=None, compare=False, repr=False)


class _Discrete:
    """Grid-bound arrays and the strong form shared by the free and
    normalized solvers; `shift` is the coefficient of u in the gradient
    (`mass_coeff` for the free modes, the multiplier for the normalized).
    `exit_reason` is why the last descent or polish stopped."""

    exit_reason = ""

    def __init__(self, params: ProblemParams, grid: RadialGrid):
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
        self.nlo = min(_MIN_SCALE_NODES, grid.n // 4)
        self._factored = (None, None, None)     # (shift, d, e) of solve_shifted

    def xi_of(self, u):
        """Talenti-matched concentration scale from the peak value."""
        peak = float(np.max(u))
        return talenti_scale(self.grid.N, peak) if peak > 0 else np.inf

    def xi_floor(self):
        k = min(_MIN_SCALE_NODES, self.n - 1)
        return self.grid.r[k]

    def conv_p(self, u):
        up = u ** self.params.p
        return self.tab.apply(up) / self.W

    def conv_of(self, u):
        """conv(u^p), or None without a Riesz term."""
        return None if self.tab is None else self.conv_p(u)

    def parts(self, u) -> _IterateParts:
        """The parts of u and its conv(u^p): the one `G @ u^p` of an iterate."""
        K = float(np.dot(u, apply_stiffness(self.Ad, self.Ao, u)))
        M = float(np.dot(self.W, u * u))
        if self.tab is not None:
            up = u ** self.params.p
            Gup = self.tab.apply(up)
            R, conv = float(up @ Gup), Gup / self.W
        else:
            R, conv = 0.0, None
        P = float(np.dot(self.W, u ** self.params.q))
        return _IterateParts(kinetic=K, mass=M, riesz=R, power=P, conv=conv)

    def ray(self, parts: _IterateParts, t) -> _IterateParts:
        """The parts and conv of t * u from those of u, by the ray scaling law."""
        conv = None if parts.conv is None else t ** self.params.p * parts.conv
        return _IterateParts(*_values(scaled_parts(self.params, parts, t, 1.0)), conv=conv)

    def residual(self, u, shift, conv):
        """The strong form F(u) = -lap u + shift u - cR conv(u^p) u^(p-1) - cP u^(q-1)
        and its scaled residual: max |F| over the largest sum of the four term
        sizes, both on the residual window; `conv` is conv(u^p)."""
        p = self.params
        term = apply_stiffness(self.Ad, self.Ao, u) / self.W
        F = term + shift * u
        size = np.abs(term) + abs(shift) * np.abs(u)
        if conv is not None:
            term = p.riesz_coeff * conv * u ** (p.p - 1)
            F -= term
            size += np.abs(term)
        if p.power_coeff:
            term = p.power_coeff * u ** (p.q - 1)
            F -= term
            size += np.abs(term)
        window = slice(self.nlo, self.ncut)
        return F, float(np.max(np.abs(F[window]))) / max(float(np.max(size[window])), 1e-300)

    def verdict(self, u, shift, parts: _IterateParts):
        """(F, scaled residual, defects, xi, converged) of u at `shift`
        (`mass_coeff`, or the multiplier lambda): the convergence verdict of
        both solvers, from one strong-form evaluation.  `converged` needs the
        scaled residual below _CONVERGED_TOL, both defects of
        `_defects_from_parts` (Nehari or P_nu, and Pohozaev) below
        _IDENTITY_TOL in absolute value, xi at or above the resolvability
        floor and a positive shift."""
        F, res = self.residual(u, shift, parts.conv)
        defects = _defects_from_parts(self.params, parts)
        xi = self.xi_of(u)
        ok = (res < _CONVERGED_TOL and max(abs(d) for d in defects) < _IDENTITY_TOL
              and xi >= self.xi_floor() and shift > 0)
        return F, res, defects, xi, bool(ok)

    def newton_system(self, u, shift, border, conv):
        """(J, M) at u: J v is the Jacobian of W * grad(., shift), Dirichlet at the
        last node, bordered by a KKT constraint gradient `border` (or None); M is
        the factored A + s W, with a Schur complement on the border row."""
        p, n, W = self.params, self.n, self.W
        mask = u > _POSITIVITY_FLOOR * max(u.max(), 1e-300)
        um = np.where(mask, u, 1.0)
        diag = self.Ad + shift * W
        if conv is not None:
            D1 = np.where(mask, u ** (p.p - 1), 0.0)
            if p.p < 2:     # u^(p-2) is unbounded at small u: regularize the diagonal
                upm2 = (u + 1e-8 * max(u.max(), 1e-300)) ** (p.p - 2)
            else:
                upm2 = np.where(mask, um ** (p.p - 2), 0.0)
            diag -= p.riesz_coeff * (W * ((p.p - 1) * conv * upm2))
        diag -= p.power_coeff * (W * np.where(mask, (p.q - 1) * um ** (p.q - 2), 0.0))

        def matvec(x):
            v = np.append(x[:n - 1], 0.0)
            out = apply_stiffness(diag, self.Ao, v)
            if conv is not None:
                # the nonlocal part of W * d[conv(u^p) u^(p-1)] is p D1 G D1,
                # since conv = (G @ u^p) / W: G carries the weights itself
                out -= (p.p * p.riesz_coeff) * D1 * self.tab.apply(D1 * v)
            if border is not None:
                out = np.append(out + x[n] * border, border @ v)
            out[n - 1] = x[n - 1]
            return out

        if border is None:
            precond = partial(self.solve_shifted, max(shift, 1e-10))
        else:
            s = self.kappa(shift, float(u @ apply_stiffness(self.Ad, self.Ao, u)))
            z = self.solve_shifted(s, border)

            def precond(r):
                x = self.solve_shifted(s, r[:n])
                y = (border @ x - r[n]) / (border @ z)
                return np.append(x - y * z, y)

        m = n + (border is not None)
        return tuple(LinearOperator((m, m), matvec=f, dtype=float) for f in (matvec, precond))

    def kappa(self, lam, kinetic):
        """lam floored at 0.02 K / a^2, so that A + kappa W is SPD when lam <= 0."""
        return max(lam, 0.02 * kinetic / self.params.a ** 2)

    def solve_shifted(self, shift, rhs):
        """(A + shift W) x = rhs with Dirichlet at the last node, by the LDL^T
        factors of the SPD tridiagonal, kept for the last shift used."""
        if self._factored[0] != shift:
            diag = np.append(self.Ad[:-1] + shift * self.W[:-1], 1.0)
            d, e, info = dpttrf(diag, np.append(self.Ao[:-1], 0.0))
            if info:
                raise np.linalg.LinAlgError(f"A + {shift:g} W is not positive definite")
            self._factored = (shift, d, e)
        return dpttrs(*self._factored[1:], np.append(rhs[:-1], 0.0))[0]

    def polish(self, u, shift, bordered: bool):
        """Newton on the strong form at `shift`; `bordered` adds the mass
        constraint, with the shift as its multiplier (a KKT system).  Each step
        is one GMRES cycle on `newton_system`, whose preconditioned J is the
        identity minus a compact operator: the Krylov count does not grow with
        n (Campbell, Ipsen, Kelley & Meyer, BIT 36, 1996).

        Returns (u, shift, steps, residual) of the best iterate.  Newton on
        the strong form is not residual-monotone (positive-part clipping
        re-shapes the tail): keep the best iterate, tolerate the early
        transient, and stop on genuine blow-up, on stagnation (the best
        residual not halved in _STALL_STEPS steps), on a Krylov breakdown
        or on a step below the resolvability floor.
        """
        n, W = self.n, self.W
        a2 = self.params.a ** 2 if bordered else None
        best, res_best, bests = (u, shift), np.inf, []
        for k in range(_NEWTON_ITERS):
            conv = self.conv_of(u)      # the step's one mat-vec
            F, res = self.residual(u, shift, conv)
            F2 = 0.5 * (self.mass(u) - a2) if bordered else 0.0
            if not np.isfinite(res) or (k > 5 and res > 1e6 * res_best):
                return self._stop("newton-blowup", *best, k, res_best)
            if res < res_best:
                best, res_best = (u, shift), res
            if res < _RESIDUAL_TOL and (not bordered or abs(F2) < 1e-13 * a2):
                return self._stop("tol", u, shift, k, res)
            bests.append(res_best)
            if k >= _STALL_STEPS and res_best > 0.5 * bests[k - _STALL_STEPS]:
                return self._stop("newton-stalled", *best, k, res_best)
            J, M = self.newton_system(u, shift, W * u if bordered else None, conv)
            rhs = np.append(-(W * F)[:-1], [0.0, -F2] if bordered else 0.0)   # Dirichlet row
            step, _ = gmres(J, rhs, rtol=_KRYLOV_RTOL, restart=_KRYLOV_DIM, maxiter=1, M=M)
            cand = np.maximum(u + step[:n], 0.0)
            cand[-1] = 0.0
            if self.xi_of(cand) < self.xi_floor():
                return self._stop("xi-floor", *best, k, res_best)
            u, shift = cand, (shift + step[n] if bordered else shift)
        return self._stop("max-iters", *best, _NEWTON_ITERS, res_best)

    def _stop(self, reason, *out):
        """Record why the stage stopped and pass its return values through."""
        self.exit_reason = reason
        return out

    def mass(self, u):
        return float(np.dot(self.W, u * u))

    def dilate(self, u, t):
        """t^(N/2) u(t r), which keeps the mass, by monotone cubic interpolation;
        None when more than a tenth of the mass leaves the window."""
        fld = RadialField.from_values(self.grid, u)
        v = t ** (self.grid.N / 2.0) * fld(np.minimum(t * self.grid.r, self.grid.r_max))
        v[t * self.grid.r > self.grid.r_max] = 0.0
        if t < 1.0:
            kept = self.mass(v)
            ref = self.mass(u)
            if ref > 0 and kept < 0.9 * ref:
                return None
        return v

    def field(self, u) -> RadialField:
        return RadialField.from_values(self.grid, u)


class _FreeSolver(_Discrete):
    """Nehari-constrained descent + Newton polish for the free modes."""

    def nehari_t(self, parts: Parts):
        return _ray_root(self.params, parts)

    def predicted_energy(self, pu: _IterateParts, arg):
        """The energy of the Nehari projection of u(arg x), from the parts of u
        by `scaled_parts` and the ray root: no mat-vec.  `arg` may be an
        array; NaN where there is no projection."""
        parts = scaled_parts(self.params, pu, 1.0, arg)
        t = _ray_root(self.params, parts)
        return np.nan if t is None else fiber_energy(self.params, parts, "ray", t)

    def scale_arg(self, pu: _IterateParts, E0, xi, concentrating: bool):
        """The arg of _SCALE_ARGS on the side the iterates drift to whose
        u(arg x) has the least predicted energy, with xi / arg held at or
        above _SCALE_MARGIN times the floor; None when no arg predicts a fall
        below E0, the energy of u.  The nearest arg is weighed alone first:
        near the end of an attained descent it predicts no fall, and the
        others are skipped."""
        half = _SCALE_ARGS.size // 2
        if concentrating:
            cap = xi / (_SCALE_MARGIN * self.xi_floor())
            if cap <= 1.0:
                return None
            args = np.minimum(_SCALE_ARGS[half:], cap)
        else:
            args = _SCALE_ARGS[half::-1]
        if not self.predicted_energy(pu, args[1]) < E0:
            return None
        E = self.predicted_energy(pu, args)
        i = int(np.nanargmin(E))
        return args[i] if E[i] < E0 and args[i] != 1.0 else None

    def scale_step(self, u, E0, arg):
        """u(arg x) projected onto the Nehari manifold, with its parts and
        energy, or None when it has no projection, falls below the
        resolvability floor or does not lower E0, the energy of u: one
        `parts` mat-vec."""
        v = self.dilate(u, arg)
        if v is None:
            return None
        v[-1] = 0.0
        pv = self.parts(v)
        t = self.nehari_t(pv)
        if t is None or self.xi_of(t * v) < self.xi_floor():
            return None
        pv = self.ray(pv, t)
        E = energy_from_parts(self.params, pv)
        return (t * v, pv, E) if E < E0 else None

    def descend(self, u):
        """Nehari-projected descent; returns (u, iterations).

        Each iteration outside the endgame (scaled residual >= _FLOW_TOL)
        first tries a scale step: when xi has moved the same way over the
        last _DRIFT_ITERATES iterates, u is dilated along that drift by the
        arg `scale_arg` predicts best, and kept if its Nehari projection
        lowers the energy.  Below the critical level the minimizing sequence
        concentrates like a bubble, and the scale is its noncompact
        direction (dynamic rescaling: McLaughlin, Papanicolaou, Sulem &
        Sulem, Phys. Rev. A 34, 1986); a gradient step follows it only a
        little per iteration.  The first rejected scale step ends scale
        steps for the descent.

        Then the line search: each trial v pays one `parts` mat-vec; the
        parts and conv of the projected t*v follow by the ray scaling law and
        serve its energy or residual and, once it is accepted, the next
        strong form and E0.  The first trial projected below the
        resolvability floor ends the descent at the last accepted iterate:
        halving tau only crawls along the floor, the pinned signature of a
        level that is not attained.
        """
        pu = self.parts(u)
        t = self.nehari_t(pu)
        if t is None:
            raise NoProjection("initial field admits no Nehari projection")
        u, pu = t * u, self.ray(pu, t)
        mc = self.params.mass_coeff
        floor = self.xi_floor()
        xis, scaling, tried, taken = [], True, 0, 0

        def stop(reason, k):
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("descent %s after %d iterations: %d of %d scale steps taken, "
                           "xi %.4g against the floor %.4g", reason, k, taken, tried,
                           self.xi_of(u), floor)
            return self._stop(reason, u, k)

        for k in range(_MAX_ITERS):
            # one strong-form evaluation per iterate; the start is not judged
            # on it, so a warm start never enters the endgame at k = 0
            g, res_scaled = self.residual(u, mc, pu.conv)
            if k == 0:
                res_scaled = np.inf
            elif res_scaled < _FLOW_TOL * 1e-2:
                return stop("tol", k)
            E0 = energy_from_parts(self.params, pu)
            xis.append(self.xi_of(u))
            drift = np.sign(np.diff(xis[-_DRIFT_ITERATES:]))
            if (scaling and res_scaled >= _FLOW_TOL and drift.size == _DRIFT_ITERATES - 1
                    and abs(drift.sum()) == drift.size):
                arg = self.scale_arg(pu, E0, xis[-1], concentrating=drift[0] < 0)
                if arg is not None:
                    tried += 1
                    step = self.scale_step(u, E0, arg)
                    scaling = step is not None
                    if scaling:
                        taken += 1
                        u, pu, E0 = step
                        g, res_scaled = self.residual(u, mc, pu.conv)
            d = self.solve_shifted(max(mc, 1e-10), g * self.W)
            endgame = res_scaled < _FLOW_TOL
            tau = 1.0
            for _ in range(40):
                v = np.maximum(u - tau * d, 0.0)
                v[-1] = 0.0
                pv = self.parts(v)
                tv = self.nehari_t(pv)
                if tv is not None:
                    if self.xi_of(tv * v) < floor:
                        return stop("xi-floor", k)
                    v, pv = tv * v, self.ray(pv, tv)
                    if endgame:
                        if self.residual(v, mc, pv.conv)[1] < res_scaled:
                            break
                    elif energy_from_parts(self.params, pv) <= E0 + 1e-14 * abs(E0):
                        break
                tau *= 0.5
            else:
                return stop("line-search-exhausted", k)
            u, pu = v, pv
        return stop("max-iters", _MAX_ITERS)

    def newton(self, u):
        u, _, k, res = self.polish(u, self.params.mass_coeff, bordered=False)
        return u, k, res


def _initial_field(tag, grid: RadialGrid) -> tuple[str, np.ndarray]:
    if isinstance(tag, RadialField):
        if not np.any(tag.values):
            raise InvalidConfiguration("zero field is not a valid initialization")
        return "supplied", tag(grid.r)
    if tag == "gaussian":
        return "gaussian", gaussian(grid, width=1.5).values
    if isinstance(tag, tuple) and tag and tag[0] == "bubble":
        eps = float(tag[1])
        vals = cutoff_bubble(grid, eps, grid.r_max / 4).values
        return f"bubble({eps:g})", vals
    raise InvalidConfiguration(f"unknown initialization {tag!r}")


def ground_state(params: ProblemParams, grid: RadialGrid, init="gaussian",
                 schedule=None) -> GroundStateResult:
    """Lowest-level Nehari-constrained critical point over the init schedule."""
    if params.normalized:
        raise InvalidParameter("use normalized_branches for the mass-constrained modes")
    seeds = list(schedule) if schedule is not None else [init]
    best = None
    solver = _FreeSolver(params, grid)
    for tag in seeds:
        name, u0 = _initial_field(tag, grid)
        u, iters = solver.descend(u0)
        k_newton = 0
        if solver.exit_reason != "xi-floor":
            # the polish would reject its first step at the floor
            u, k_newton, _ = solver.newton(u)
        parts = solver.parts(u)
        F, res_scaled, (nd, pd), xi, converged = solver.verdict(u, params.mass_coeff, parts)
        umax = u.max()
        res_sup = float(np.max(np.abs(F[solver.nlo: solver.ncut]))) / max(umax, 1e-300)
        noninc = bool(np.all(np.diff(u) <= 1e-8 * umax + 1e-300))
        result = GroundStateResult(params=params, field=solver.field(u),
                                   level=energy_from_parts(params, parts),
                                   nehari_defect=nd, pohozaev_defect=pd,
                                   pde_residual=res_sup, pde_residual_scaled=res_scaled,
                                   iterations=iters + k_newton, converged=converged,
                                   init_tag=name, radially_nonincreasing=noninc,
                                   concentration_scale=float(xi),
                                   exit_reason=solver.exit_reason)
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

    def normalize(self, u):
        m = self.mass(u)
        if m <= 0:
            raise InvalidConfiguration("field collapsed to zero during the flow")
        return u * np.sqrt(self.params.a ** 2 / m)

    def fiber_points(self, parts: Parts):
        return _fiber_critical_points(self.params, parts, "mass")

    def fiber_point(self, parts: Parts, which):
        """The first fiber minimum (which = 1) or the last maximum (which = -1)."""
        match = [t for t, kind in self.fiber_points(parts) if kind == which]
        if not match:
            return None
        return match[0] if which == 1 else match[-1]

    def project(self, u, which):
        """Dilate to the fiber critical point of the requested kind."""
        t = self.fiber_point(self.parts(u), which)
        if t is None:
            return None
        v = self.dilate(u, t)
        if v is None:
            return None
        return self.normalize(v)

    def objective(self, parts: Parts, which):
        """Flow objective: energy at the fiber point (max for P-, value for P+)."""
        t = self.fiber_point(parts, which)
        if t is None:
            return None
        return float(fiber_energy(self.params, parts, "mass", t))

    def flow(self, u0, which):
        """Constrained descent to the `which` fiber branch; returns
        (v, iterations, status, parts of v)."""
        u = self.normalize(u0)
        v = self.project(u, which)
        if v is None:
            return None, 0, "no-fiber-point", None
        parts = self.parts(v)
        for k in range(_FLOW_ITERS):
            # one parts(v) per iterate serves the multiplier, the residual, kappa and obj0
            lam = multiplier_from_parts(self.params, parts)
            g, res = self.residual(v, lam, parts.conv)
            if res < _FLOW_TOL:
                return v, k, "tol", parts
            d = self.solve_shifted(self.kappa(lam, parts.kinetic), g * self.W)
            d -= np.dot(self.W, d * v) / self.params.a ** 2 * v
            obj0 = self.objective(parts, which)
            tau = 0.5
            for _ in range(20):
                cand = np.maximum(v - tau * d, 0.0)
                cand[-1] = 0.0
                if cand.max() > 0:
                    cand = self.normalize(cand)
                    proj = self.project(cand, which)
                    if proj is not None:
                        proj_parts = self.parts(proj)
                        obj = self.objective(proj_parts, which)
                        if obj is not None and obj <= obj0 + 1e-13 * abs(obj0):
                            break
                tau *= 0.5
            else:
                return v, k, "line-search-exhausted", parts
            v, parts = proj, proj_parts
        return v, _FLOW_ITERS, "max-iters", parts

    def newton(self, u, lam):
        return self.polish(u, lam, bordered=True)


def _identity_defect(params: ProblemParams, lam, parts: Parts) -> float:
    """Defect of the P_nu + Pohozaev multiplier identity, relative to lam a^2."""
    lhs = lam * params.a ** 2
    return float((lhs - identity_prediction(params, parts)) / lhs) if lhs != 0 else np.inf


def multiplier_check(result: NormalizedBranchResult) -> float:
    """`_identity_defect` of a branch, signed, from parts recomputed from its field."""
    params = result.params
    return _identity_defect(params, result.lambda_nu,
                            compute_parts(params, result.field, use_deriv=False))


def _branch_result(solver: _MassSolver, u, lam, iters, which, reason) -> NormalizedBranchResult:
    params = solver.params
    parts = solver.parts(u)
    _, res, _, _, converged = solver.verdict(u, lam, parts)
    defect = abs(_identity_defect(params, lam, parts))
    return NormalizedBranchResult(params=params, field=solver.field(u),
                                  branch="P+" if which == 1 else "P-",
                                  level=energy_from_parts(params, parts), lambda_nu=float(lam),
                                  multiplier_identity_defect=defect,
                                  pde_residual_scaled=float(res), iterations=iters,
                                  converged=converged, exit_reason=reason)


def _polish_branch(solver: _MassSolver, u0, which):
    """Flow from u0 to the `which` branch, then the bordered Newton polish;
    returns (result, None), or (None, reason) when the flow finds no branch."""
    u, it_flow, status, parts = solver.flow(u0, which)
    if u is None:
        return None, status
    lam = multiplier_from_parts(solver.params, parts)
    u, lam, it_newton, _ = solver.newton(u, lam)
    reason = solver.exit_reason if it_newton else status
    return _branch_result(solver, u, lam, it_flow + it_newton, which, reason), None


def _bubble_seed(solver: _MassSolver) -> np.ndarray | None:
    """Cutoff-bubble seed with the best fiber-max level over a short scale scan."""
    grid = solver.grid
    best, best_obj = None, np.inf
    for s in (0.05, 0.1, 0.2, 0.5, 1.0):
        vals = cutoff_bubble(grid, s, grid.r_max / 4).values
        try:
            u = solver.normalize(vals)
        except InvalidConfiguration:
            continue
        obj = solver.objective(solver.parts(u), -1)
        if obj is not None and obj < best_obj:
            best, best_obj = u, obj
    return best


def normalized_branches(params: ProblemParams, grid: RadialGrid) -> NormalizedBranches:
    """The P+ local minimizer (when the fiber geometry admits one) and the
    P- mountain-pass branch of the mass-constrained problem."""
    if not params.normalized:
        raise InvalidParameter("normalized_branches needs a normalized mode")
    solver = _MassSolver(params, grid)

    plus = minus = None
    plus_reason = minus_reason = None

    # P+ branch: spread seeds over a width scan, preferring those whose own
    # fiber minimum sits at a representable dilation, then flow + polish
    candidates = []
    for wdt in np.geomspace(1.5, grid.r_max / 3.0, 6):
        u0 = solver.normalize(gaussian(grid, width=float(wdt)).values)
        tplus = solver.fiber_point(solver.parts(u0), 1)
        if tplus is not None:
            candidates.append((abs(np.log(tplus)), u0))
    if not candidates:
        plus_reason = "fiber admits no local minimum at this (nu, a)"
    else:
        candidates.sort(key=lambda c: c[0])
        for _, u0 in candidates[:3]:
            cand, reason = _polish_branch(solver, u0, 1)
            if cand is None:
                plus_reason = reason
                continue
            if plus is None or (cand.converged and (not plus.converged or cand.level < plus.level)):
                plus = cand
                plus_reason = None
            if plus is not None and plus.converged:
                break

    # P- branch: cutoff-bubble seed from a scale pre-scan, fiber local maximum
    u0 = _bubble_seed(solver)
    if u0 is None:
        minus_reason = "no bubble seed admits a fiber maximum"
    else:
        minus, minus_reason = _polish_branch(solver, u0, -1)

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
    grid = make_grid(N, new_rmax, g0.n, g0.grading)
    amp = lam ** (-(N - 2) / 4.0)
    vals = amp * old(grid.r / scale)
    if params.mode == "normalized-hls":
        coupling = params.nu * lam ** (-params.gamma_exp / 4.0)
        eff = ProblemParams(N=N, alpha=params.alpha, p=params.p, q=params.q,
                            mode="lambda", lam=coupling)
    else:
        coupling = params.nu * lam ** (-params.eta_exp / 2.0)
        eff = ProblemParams(N=N, alpha=params.alpha, p=params.p, q=params.q,
                            mode="mu", mu=coupling)
    solver = _FreeSolver(eff, grid)
    u = np.maximum(vals, 0.0)
    u[-1] = 0.0
    parts = solver.parts(u)
    _, res_scaled = solver.residual(u, eff.mass_coeff, parts.conv)
    if res_scaled > residual_tol:
        raise RescaleInconsistency(
            f"rescaled candidate residual {res_scaled:.2e} exceeds {residual_tol:.0e}; "
            "multiplier extraction or interpolation is inconsistent")
    level = energy_from_parts(eff, parts)
    return RescaledSolution(field=solver.field(u), params_effective=eff,
                            coupling=float(coupling),
                            pde_residual_scaled=float(res_scaled), level=float(level),
                            energy_no_mass=float(level - 0.5 * parts.mass),
                            source=result)

"""Solution objects: local ground states by one collocation solve,
Nehari-constrained descent for the free problems, the two mass-constrained
branches, and the second-solution rescaling.

Both solvers run one descent, `_Discrete.projected_descent`: a
preconditioned gradient step with positive-part truncation, projected onto
the Nehari ray (free modes) or the mass fiber (normalized modes) from one
Riesz mat-vec per trial, and finished by a Newton polish on the discrete
strong form.  The discretization is variationally consistent (the
stiffness form is the energy's kinetic term), so the full gradient
vanishes at the constrained minimizer and the strong-form residual can be
driven to solver tolerance.  On the ray the descent also steps along the
scale, the noncompact direction of the critical problems, by the dilation
the exact scaling laws of the four parts predict best, so a state below
the threshold reaches the resolvability floor in a few iterations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from math import copysign, hypot, sqrt

import numpy as np

from .errors import (IncompatibleGrid, InvalidConfiguration, InvalidParameter,
                     NoProjection, RescaleInconsistency, ShootingFailure)
from .functional import (ProblemParams, Parts, compute_parts, energy_from_parts,
                         fiber_energy, identity_prediction, multiplier_from_parts,
                         scaled_parts, _defects_from_parts, _fiber_critical_points,
                         _fiber_exponents, _MODES, _ray_root, _values)
from .grid import RadialField, RadialGrid, apply_stiffness, make_grid
from .profiles import cutoff_bubble, gaussian, talenti_scale
from .riesz import _check_dimension, kernel_table

__all__ = ["GroundStateResult", "NormalizedBranchResult", "NormalizedBranches",
           "RescaledSolution", "shoot_local_ground_state", "ground_state",
           "normalized_branches", "multiplier_check", "second_solution_via_rescale"]


# One solver configuration serves every experiment.  The settings are module
# constants, read when a solver method runs.
_MAX_ITERS = 400            # descent iterations
_FLOW_ITERS = 150           # normalized-flow iterations
_NEWTON_ITERS = 30
_RESIDUAL_TOL = 1e-9        # target of the polish, on the one residual `_Discrete.residual`
_CONVERGED_TOL = 1e-6       # residual gate for `converged`
_FLOW_TOL = 1e-4            # residual of the hand-off from descent or flow to Newton
_IDENTITY_TOL = 1e-3        # Nehari/Pohozaev defect gate for `converged`
_POSITIVITY_FLOOR = 1e-9    # Jacobian clamp where u < floor * max(u)
_MIN_SCALE_NODES = 24       # resolvability floor: xi >= r[_MIN_SCALE_NODES]
# Newton stagnation: stop when the best residual has not halved in this many
# steps, a mean contraction worse than 0.5^(1/3) ~ 0.79 per step.  That is
# close to Deuflhard's restricted monotonicity bound 3/4 for a full Newton
# step (Newton Methods for Nonlinear Problems, 2004), read on the residual
# instead of on simplified corrections, which would cost a solve each.
_STALL_STEPS = 3
_KRYLOV_DIM = 60            # one GMRES cycle; test_08's steps take 5-13 at n = 1000, 2000
_KRYLOV_RTOL = 1e-10        # forcing term a decade below _RESIDUAL_TOL (Eisenstat & Walker 1996)
# Scale steps of the free descent: the dilations u(arg x) it weighs, log-spaced
# in [1/2, 2] and walked outward from arg = 1 as Python floats; the iterates over
# which xi must move one way before it dilates that way; and how far above the
# floor a dilation may take xi.  The margin leaves the last stretch to ordinary
# steps, which relax the shape a dilation leaves behind: with none, threshold's
# pinned descents at lam = 0.5 (n = 1000) exit 0.1-0.2 % above the plain descent's levels.
_SCALE_ARGS = (2.0 ** np.linspace(-1.0, 1.0, 41)).tolist()
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

    `converged` is the one verdict of both solvers, `_Discrete.verdict`,
    which gates `pde_residual_scaled`.  `exit_reason` is why the last stage
    stopped: the descent's `tol`, `line-search-exhausted`, `xi-floor` or
    `max-iters`, or Newton's `tol`, `newton-stalled`, `newton-blowup`,
    `xi-floor` or `max-iters`.
    """

    params: ProblemParams
    field: RadialField
    level: float
    nehari_defect: float
    pohozaev_defect: float
    pde_residual_scaled: float   # the dual residual of `_Discrete.residual`
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


# ------------------------------------------------------ local ground state

def shoot_local_ground_state(N: int, q: float) -> RadialField:
    """Positive decaying solution Q of -Q'' - (N-1)/r Q' + Q = Q^(q-1) on
    make_grid(N, 25, 1200, 2), with Q' as its derivative and Q(0) as its origin.

    Stage one picks the branch: the lab's `ground_state` of the local problem
    (mu = 0, no Riesz table) on make_grid(N, 40, 1200, 4), whose floor lies
    below Q's scale near 2*, seeded with the q -> 2 limit e^(N/2 - (q-2) r^2/4)
    (the Gausson: Bialynicki-Birula & Mycielski, Ann. Phys. 100, 1976), which
    keeps the descent off the floor near q = 2, where a Gaussian seed ends.
    Stage two is one collocation solve (`solve_bvp`, tol 1e-7) for (Q, Q') from
    that field on 0 and the nodes of make_grid(N, 40, 1200, 2), coarse enough
    at the origin for the node cap: Q'(0) = 0, and at r = 40, where Q is linear
    even near q = 2, the log-derivative of the decaying mode r^(1-N/2) K_(N/2-1).
    The positive radial solution is unique (Kwong, ARMA 105, 1989), so Q is
    the ODE's, not the lab discretization's.  ShootingFailure when the solve
    fails or Q is not positive.
    """
    _check_dimension(N)
    if not 2 < q < 2 * N / (N - 2):
        raise InvalidParameter(f"q={q} must be subcritical: (2, {2*N/(N-2)})")
    from scipy.integrate import solve_bvp
    from scipy.special import kve
    grid = make_grid(N, 40.0, 1200, 4.0)
    gausson = RadialField.from_values(grid, np.exp(N / 2 - (q - 2) * grid.r ** 2 / 4))
    seed = ground_state(ProblemParams(N=N, alpha=2.0, p=(N + 2) / (N - 2), q=q, lam=1.0),
                        grid, seeds=(gausson,)).field
    r = np.concatenate(([0.0], make_grid(N, 40.0, 1200, 2.0).r))
    Q = seed(r)
    # (r^(1-N/2) K_(N/2-1))' / (r^(1-N/2) K_(N/2-1)) = -K_(N/2) / K_(N/2-1)
    slope = -kve(N / 2, r[-1]) / kve(N / 2 - 1, r[-1])
    sol = solve_bvp(lambda x, y: np.vstack((y[1], y[0] - np.sign(y[0]) * np.abs(y[0]) ** (q - 1))),
                    lambda ya, yb: np.array((ya[1], yb[1] - slope * yb[0])),
                    r, np.vstack((Q, np.gradient(Q, r))), S=np.diag([0.0, 1.0 - N]),
                    tol=1e-7, bc_tol=1e-7, max_nodes=100000)
    out = make_grid(N, 25.0, 1200, 2.0)
    vals, derivs = sol.sol(out.r)
    if sol.status != 0 or not (sol.y[0, 0] > 0 and np.all(vals > 0)):
        raise ShootingFailure(f"no positive profile at N={N}, q={q}: {sol.message}")
    return RadialField.from_values(out, vals, deriv=derivs, origin=sol.y[0, 0])


# ------------------------------------------------------- discrete problems

def _admissible(v) -> np.ndarray:
    """The positive part of v, zero at the Dirichlet node: the form of every
    solver iterate, whatever made it (a seed, a step, a dilation)."""
    v = np.maximum(v, 0.0)
    v[-1] = 0.0
    return v


def _first_order(c):
    """The solver of y_0 = b_0, y_i = b_i + c_(i-1) y_(i-1) for the
    coefficients c: y = P cumsum(b / P), P the running product of c.  P
    restarts at 1 wherever it would leave [e^-300, e^300], so that no b / P
    overflows, and the chunk that starts there carries the value before it."""
    n = c.size + 1
    P, chunks, s = np.ones(n), [], 0
    while s < n:
        p = np.cumprod(c[s:])
        out = np.flatnonzero(~((np.exp(-300.0) < np.abs(p)) & (np.abs(p) < np.exp(300.0))))
        e = s + 1 + (out[0] if out.size else p.size)
        P[s + 1:e] = p[:e - s - 1]
        chunks.append((s, e))
        s = e

    def solve(b):
        y = b / P
        for s, e in chunks:
            if s:
                y[s] += c[s - 1] * y[s - 1]
            np.cumsum(y[s:e], out=y[s:e])
            y[s:e] *= P[s:e]
        return y
    return solve


def _gmres(A, b, M):
    """One cycle of left-preconditioned GMRES (Saad & Schultz, SIAM J. Sci.
    Stat. Comput. 7, 1986) for A x = b from x = 0, the callables A and M
    applied to vectors: modified Gram-Schmidt, Givens rotations of the
    Hessenberg columns and a back-substitution.  Stops when |M r| <=
    _KRYLOV_RTOL |M b|, on a breakdown (the space holds the solution) or
    after _KRYLOV_DIM iterations.  Returns (x, iterations)."""
    r = M(b)
    beta = float(np.linalg.norm(r))
    if beta == 0.0:
        return np.zeros_like(b), 0
    V = np.empty((_KRYLOV_DIM + 1, b.size))
    H = np.zeros((_KRYLOV_DIM + 1, _KRYLOV_DIM))    # column j from iteration j, rotated
    g = np.zeros(_KRYLOV_DIM + 1)                   # beta e_1, rotated
    g[0], V[0], rotations = beta, r * (1.0 / beta), []
    for j in range(_KRYLOV_DIM):
        w = M(A(V[j]))
        h0 = np.linalg.norm(w)
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w -= H[i, j] * V[i]
        h1 = np.linalg.norm(w)
        breakdown = h1 <= np.finfo(float).eps * h0
        if not breakdown:
            H[j + 1, j], V[j + 1] = h1, w * (1.0 / h1)
        for i, (c, s) in enumerate(rotations):
            H[i, j], H[i + 1, j] = c * H[i, j] + s * H[i + 1, j], c * H[i + 1, j] - s * H[i, j]
        f, h = float(H[j, j]), float(H[j + 1, j])
        rho = copysign(hypot(f, h), f)
        c, s = (f / rho, h / rho) if rho else (1.0, 0.0)
        rotations.append((c, s))
        H[j, j], H[j + 1, j], g[j], g[j + 1] = rho, 0.0, c * g[j], -s * g[j]
        if abs(g[j + 1]) <= _KRYLOV_RTOL * beta or breakdown:
            break
    k = j + 1
    y = g[:k]
    for i in range(k - 1, -1, -1):
        y[i] = (y[i] - H[i, i + 1:k] @ y[i + 1:k]) / H[i, i]
    return y @ V[:k], k


@dataclass(frozen=True)
class _IterateParts(Parts):
    """The parts of a solver iterate u and conv = (G @ u^p) / W, the Riesz
    potential its strong form needs (None without a Riesz term)."""

    conv: np.ndarray | None = field(default=None, compare=False, repr=False)


class _Discrete:
    """Grid-bound arrays and the strong form shared by the free and
    normalized solvers; `shift` is the coefficient of u in the gradient
    (`mass_coeff` for the free modes, the multiplier for the normalized).
    Each stage returns why it stopped as the last element of its tuple."""

    def __init__(self, params: ProblemParams, grid: RadialGrid):
        if grid.N != params.N:
            raise IncompatibleGrid(f"a grid in N = {grid.N} for a problem in N = {params.N}")
        self.params = params
        self.grid = grid
        self.W = grid.weights_full
        sa = grid.sphere_area
        self.Ad = grid.stiff_diag * sa
        self.Ao = grid.stiff_off * sa
        self.tab = kernel_table(grid, params.alpha) if params.riesz_coeff != 0 else None
        self.n = grid.n
        self._factored = {}     # (shift, pivots, two sweeps) of `factors`, by slot

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
        """The strong form F(u) = -lap u + shift u - cR conv(u^p) u^(p-1) - cP u^(q-1),
        `conv` = conv(u^p), and its residual sqrt(g' P^-1 g / u' P u), g = W F and
        P = A + W: the dual (H^-1) norm of F over the H^1 norm of u, on every node
        (Verfuerth, A Posteriori Error Estimation Techniques for Finite Element
        Methods, 2013)."""
        p = self.params
        Au = apply_stiffness(self.Ad, self.Ao, u)
        F = Au / self.W + shift * u
        if conv is not None:
            F -= p.riesz_coeff * conv * u ** (p.p - 1)
        if p.power_coeff:
            F -= p.power_coeff * u ** (p.q - 1)
        # g' P^-1 g = z' D^-1 z with z = L^-1 g, for P = L D L' (`factors`)
        d, lower, _ = self.factors(1.0)
        z = lower((self.W * F)[:-1])
        return F, sqrt(float(z @ (z / d)) / max(float(u @ Au) + self.mass(u), 1e-300))

    def verdict(self, u, shift, parts: _IterateParts):
        """(residual, defects, xi, converged) of u at `shift` (`mass_coeff`, or
        the multiplier lambda): the convergence verdict of both solvers, from
        one `residual`.  `converged` needs the residual below _CONVERGED_TOL,
        both defects of `_defects_from_parts` (Nehari or P_nu, and Pohozaev)
        below _IDENTITY_TOL in absolute value, a finite xi (u = 0 has no residual
        and no defect) at or above the resolvability floor and a positive shift."""
        res = self.residual(u, shift, parts.conv)[1]
        defects = _defects_from_parts(self.params, parts)
        xi = self.xi_of(u)
        ok = (res < _CONVERGED_TOL and max(abs(d) for d in defects) < _IDENTITY_TOL
              and self.xi_floor() <= xi < np.inf and shift > 0)
        return res, defects, xi, bool(ok)

    def newton_system(self, u, shift, border, conv):
        """(J, M) at u, two callables on vectors: J v is the Jacobian of
        W * grad(., shift), Dirichlet at the last node, bordered by a KKT
        constraint gradient `border` (or None); M is the factored A + s W, with
        a Schur complement on the border row."""
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
        return matvec, precond

    def kappa(self, lam, kinetic):
        """lam floored at 0.02 K / a^2, so that A + kappa W is SPD when lam <= 0."""
        return max(lam, 0.02 * kinetic / self.params.a ** 2)

    def factors(self, shift):
        """(d, lower, upper): LDL^T of the SPD tridiagonal A + shift W with
        Dirichlet at the last node, the pivots d from one loop (LinAlgError
        unless each is > 0) and each unit bidiagonal sweep a first-order
        recurrence (`_first_order`).  The unit shift's, `residual`'s norm, are
        kept beside the last other shift's: a flow's kappa does not evict them."""
        slot = shift == 1.0
        if self._factored.get(slot, (None,))[0] != shift:
            e = self.Ao[:-1]        # x = 0 at the Dirichlet node: the leading block
            d, di = [], 1.0         # d_i = a_i - e_(i-1)^2 / d_(i-1)
            for ai, e2 in zip((self.Ad[:-1] + shift * self.W[:-1]).tolist(),
                              [0.0] + (e * e).tolist()):
                di = ai - e2 / di
                if not di > 0:
                    raise np.linalg.LinAlgError(f"A + {shift:g} W is not positive definite")
                d.append(di)
            d = np.array(d)
            l = e / d[:-1]
            self._factored[slot] = (shift, d, _first_order(-l), _first_order(-l[::-1]))
        return self._factored[slot][1:]

    def solve_shifted(self, shift, rhs):
        """(A + shift W) x = rhs with Dirichlet at the last node, by `factors`."""
        d, lower, upper = self.factors(shift)
        z = lower(rhs[:-1]) / d
        return np.append(upper(z[::-1])[::-1], 0.0)

    def polish(self, u, shift, bordered: bool):
        """Newton on the strong form at `shift`; `bordered` adds the mass
        constraint, with the shift as its multiplier (a KKT system).  Each step
        is one GMRES cycle (`_gmres`) on `newton_system`, whose preconditioned
        J is the identity minus a compact operator: the Krylov count does not
        grow with n (Campbell, Ipsen, Kelley & Meyer, BIT 36, 1996).

        Returns (u, shift, steps, residual, reason) of the best iterate.
        Newton on the strong form is not residual-monotone (positive-part
        clipping re-shapes the tail): keep the best iterate, tolerate the early
        transient, and stop on genuine blow-up, on stagnation (the best
        residual not halved in _STALL_STEPS steps) or on a step below the
        resolvability floor.
        """
        n, W = self.n, self.W
        a2 = self.params.a ** 2 if bordered else None
        best, res_best, bests = (u, shift), np.inf, []

        def stop(u, shift, k, res, reason):
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("newton %s after %d steps: residual %.3g", reason, k, res)
            return u, shift, k, res, reason

        for k in range(_NEWTON_ITERS):
            conv = self.conv_of(u)      # the step's one mat-vec
            F, res = self.residual(u, shift, conv)
            F2 = 0.5 * (self.mass(u) - a2) if bordered else 0.0
            if not np.isfinite(res) or (k > 5 and res > 1e6 * res_best):
                return stop(*best, k, res_best, "newton-blowup")
            if res < res_best:
                best, res_best = (u, shift), res
            if res < _RESIDUAL_TOL and (not bordered or abs(F2) < 1e-13 * a2):
                return stop(u, shift, k, res, "tol")
            bests.append(res_best)
            if k >= _STALL_STEPS and res_best > 0.5 * bests[k - _STALL_STEPS]:
                return stop(*best, k, res_best, "newton-stalled")
            J, M = self.newton_system(u, shift, W * u if bordered else None, conv)
            rhs = np.append(-(W * F)[:-1], [0.0, -F2] if bordered else 0.0)   # Dirichlet row
            step, _ = _gmres(J, rhs, M)
            cand = _admissible(u + step[:n])
            if self.xi_of(cand) < self.xi_floor():
                return stop(*best, k, res_best, "xi-floor")
            u, shift = cand, (shift + step[n] if bordered else shift)
        return stop(*best, _NEWTON_ITERS, res_best, "max-iters")

    def mass(self, u):
        return float(np.dot(self.W, u * u))

    def dilate(self, u, t):
        """t^(N/2) u(t r), which keeps the mass, by monotone cubic interpolation
        (zero past r_max); None when more than a tenth of the mass leaves the window."""
        fld = RadialField.from_values(self.grid, u)
        v = t ** (self.grid.N / 2.0) * fld(t * self.grid.r)
        return None if t < 1.0 and self.mass(v) < 0.9 * self.mass(u) else v

    def projected_descent(self, u, iters):
        """Preconditioned descent projected onto the solver's `fiber`, to the
        residual _FLOW_TOL or `iters` iterations; returns (u, k, parts,
        reason), or (None, 0, None, reason) when the start has no fiber point.
        Both solvers hand off to the Newton polish there: below it one Newton
        step covers what many descent steps would.

        The solver supplies `shift`, `objective`, `direction` and `trial(v)`:
        v projected onto the fiber from one `parts` mat-vec as (objective,
        below the floor, land), or None; land() gives the field and its
        parts, or None.  A scale step comes first while xi drifts one way
        and `scale_arg` predicts a fall, until one is rejected.  The line
        search halves tau from 1 until a landed trial lowers the objective.
        A trial below the resolvability floor ends the descent: halving tau
        only crawls along the floor, the pinned signature of a level that is
        not attained.
        """
        start = self.trial(u)
        landed = None if start is None else start[2]()
        if landed is None:
            return None, 0, None, "no-fiber-point" if start is None else "fiber-point-outside-window"
        u, pu = landed
        xis, scaling, tried, taken = [], True, 0, 0

        def stop(reason, k):
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("descent %s after %d iterations: %s fiber, %d of %d scale steps "
                           "taken, xi %.4g against the floor %.4g", reason, k, self.fiber,
                           taken, tried, self.xi_of(u), self.xi_floor())
            return u, k, pu, reason

        for k in range(iters):
            # one strong-form evaluation per iterate; the start is not judged
            # on it, so a warm start always takes at least one step
            shift = self.shift(pu)
            g, res = self.residual(u, shift, pu.conv)
            if k > 0 and res < _FLOW_TOL:
                return stop("tol", k)
            E0 = self.objective(pu)
            xis.append(self.xi_of(u))
            drift = np.sign(np.diff(xis[-_DRIFT_ITERATES:]))
            if scaling and drift.size == _DRIFT_ITERATES - 1 and abs(drift.sum()) == drift.size:
                arg = self.scale_arg(pu, E0, xis[-1], concentrating=drift[0] < 0)
                if arg is not None:
                    tried += 1
                    step = self.scale_step(u, E0, arg)
                    scaling = step is not None
                    if scaling:
                        taken += 1
                        u, pu, E0 = step
                        g = self.residual(u, shift := self.shift(pu), pu.conv)[0]
            d = self.direction(u, pu, g, shift)
            tau = 1.0
            for _ in range(40):
                trial = self.trial(_admissible(u - tau * d))
                if trial is not None:
                    E, below, land = trial
                    if below:
                        return stop("xi-floor", k)
                    if E <= E0 + 1e-14 * abs(E0) and (landed := land()) is not None:
                        break
                tau *= 0.5
            else:
                return stop("line-search-exhausted", k)
            u, pu = landed
        return stop("max-iters", iters)


class _FreeSolver(_Discrete):
    """Nehari-projected descent + Newton polish for the free modes."""

    fiber = "ray"

    def shift(self, parts: Parts):
        return self.params.mass_coeff

    def objective(self, parts: Parts):
        return energy_from_parts(self.params, parts)

    def direction(self, u, parts, g, shift):
        return self.solve_shifted(max(shift, 1e-10), g * self.W)

    def trial(self, v):
        """t v on the Nehari ray from one `parts`: landing is free by the ray law."""
        pv = self.parts(v)
        t = self.nehari_t(pv)
        if t is None:
            return None
        v, pv = t * v, self.ray(pv, t)
        return energy_from_parts(self.params, pv), self.xi_of(v) < self.xi_floor(), lambda: (v, pv)

    def nehari_t(self, parts: Parts):
        return _ray_root(self.params, parts)

    def scale_arg(self, pu: _IterateParts, E0, xi, concentrating: bool):
        """The last arg of _SCALE_ARGS, walked outward from arg = 1 on the side
        the iterates drift to, that lowers the predicted energy below E0, the
        energy of u, and below the arg before it; xi / arg is held at or above
        _SCALE_MARGIN times the floor.  The prediction is the energy of the
        Nehari projection of u(arg x) from `scaled_parts` and the ray root, no
        mat-vec; an arg without one ends the walk as a rise does."""
        if concentrating:
            cap = xi / (_SCALE_MARGIN * self.xi_floor())
            if cap <= 1.0:
                return None
            args = [min(arg, cap) for arg in _SCALE_ARGS if arg > 1.0]
        else:
            args = [arg for arg in reversed(_SCALE_ARGS) if arg < 1.0]
        best = None
        for arg in args:
            parts = scaled_parts(self.params, pu, 1.0, arg)
            t = _ray_root(self.params, parts)
            if t is None:
                break
            E = fiber_energy(self.params, parts, "ray", t)
            if not E < E0:
                break
            best, E0 = arg, E
        return best

    def scale_step(self, u, E0, arg):
        """The trial of u(arg x) as (field, parts, energy) if it lowers E0.
        Below the critical level the minimizing sequence concentrates along
        the scale, its noncompact direction, which a gradient step follows
        only a little per iteration (dynamic rescaling: McLaughlin,
        Papanicolaou, Sulem & Sulem, Phys. Rev. A 34, 1986)."""
        v = self.dilate(u, arg)
        if v is None:
            return None
        trial = self.trial(_admissible(v))
        if trial is None or trial[1] or not trial[0] < E0:
            return None
        return (*trial[2](), trial[0])

    def descend(self, u):
        """`projected_descent` on the Nehari ray, handing off to `newton` at
        _FLOW_TOL as the normalized flow does; returns (u, iterations, reason).
        A start with no point on the ray raises NoProjection: a free problem
        has no absent branch."""
        u, k, _, reason = self.projected_descent(u, _MAX_ITERS)
        if u is None:
            raise NoProjection(f"initial field: {reason} on its ray fiber")
        return u, k, reason

    def newton(self, u):
        u, _, k, res, reason = self.polish(u, self.params.mass_coeff, bordered=False)
        return u, k, res, reason


def _initial_field(tag, grid: RadialGrid) -> tuple[str, np.ndarray]:
    """(name, admissible start on grid) of a seed: a RadialField, "gaussian" or
    ("bubble", eps); a start that is positive nowhere is refused."""
    if isinstance(tag, RadialField):
        name, vals = "supplied", tag(grid.r)
    elif tag == "gaussian":
        name, vals = "gaussian", gaussian(grid, width=1.5).values
    elif isinstance(tag, tuple) and tag and tag[0] == "bubble":
        eps = float(tag[1])
        name, vals = f"bubble({eps:g})", cutoff_bubble(grid, eps, grid.r_max / 4).values
    else:
        raise InvalidConfiguration(f"unknown initialization {tag!r}")
    u = _admissible(vals)
    if not np.any(u):
        raise InvalidConfiguration(f"{name} initialization is positive nowhere on the grid")
    return name, u


def _best(results):
    """The one result kept among several solves of a problem: a converged
    result beats an unconverged one, then the lower level wins, then the
    earlier one."""
    return min(results, key=lambda r: (not r.converged, r.level))


def ground_state(params: ProblemParams, grid: RadialGrid,
                 seeds=("gaussian",)) -> GroundStateResult:
    """Nehari-constrained critical point over `seeds` (see `_initial_field`),
    each run through descent and polish, kept by `_best`."""
    if params.normalized:
        raise InvalidParameter("use normalized_branches for the mass-constrained modes")
    results = []
    solver = _FreeSolver(params, grid)
    for tag in seeds:
        name, u0 = _initial_field(tag, grid)
        u, iters, reason = solver.descend(u0)
        k_newton = 0
        if reason != "xi-floor":
            # the polish would reject its first step at the floor
            u, k_newton, _, reason = solver.newton(u)
        parts = solver.parts(u)
        res, (nd, pd), xi, converged = solver.verdict(u, params.mass_coeff, parts)
        noninc = bool(np.all(np.diff(u) <= 1e-8 * u.max() + 1e-300))
        results.append(GroundStateResult(
            params=params, field=RadialField.from_values(solver.grid, u),
            level=energy_from_parts(params, parts), nehari_defect=nd, pohozaev_defect=pd,
            pde_residual_scaled=res, iterations=iters + k_newton,
            converged=converged, init_tag=name, radially_nonincreasing=noninc,
            concentration_scale=float(xi), exit_reason=reason))
    return _best(results)


# --------------------------------------------------- normalized two-branch

class _MassSolver(_Discrete):
    """Mass-fiber-projected descent + KKT Newton for the normalized modes;
    `which` is the branch the flow projects onto, 1 (P+) or -1 (P-)."""

    fiber = "mass"

    def normalize(self, u):
        m = self.mass(u)
        if m <= 0:
            raise InvalidConfiguration("field collapsed to zero during the flow")
        return u * np.sqrt(self.params.a ** 2 / m)

    def fiber_points(self, parts: Parts):
        return _fiber_critical_points(self.params, parts, "mass")

    def fiber_level(self, parts: Parts, which):
        """(t, energy) at the first fiber minimum (which = 1) or last maximum (-1)."""
        match = [t for t, kind in self.fiber_points(parts) if kind == which]
        if not match:
            return None, np.nan         # an objective no trial lowers
        t = match[0] if which == 1 else match[-1]
        return t, float(fiber_energy(self.params, parts, "mass", t))

    def shift(self, parts: Parts):
        return multiplier_from_parts(self.params, parts)

    def objective(self, parts: Parts):
        return self.fiber_level(parts, self.which)[1]

    def direction(self, u, parts, g, shift):
        """The preconditioned gradient, made tangent to the mass sphere."""
        d = self.solve_shifted(self.kappa(shift, parts.kinetic), g * self.W)
        return d - np.dot(self.W, d * u) / self.params.a ** 2 * u

    def trial(self, v):
        """The `which` fiber point of v on the mass sphere from one `parts`:
        the ray law normalizes and the dilation law gives the energy, so only
        landing pays a dilation and a `parts`.  No floor exit: a P- flow may
        start below the floor and relax (HLS nu = 1 from a cutoff bubble of
        scale 0.05, make_grid(3, 50, 1400, 2))."""
        pv = self.parts(v)
        if not pv.mass > 0:
            return None
        pv = self.ray(pv, np.sqrt(self.params.a ** 2 / pv.mass))
        t, E = self.fiber_level(pv, self.which)
        if t is None:
            return None

        def land():
            w = self.dilate(v, t)
            w = None if w is None else self.normalize(w)
            return None if w is None else (w, self.parts(w))

        return E, False, land

    def scale_arg(self, parts, E0, xi, concentrating):
        """None: the fiber projection is a dilation, so it would undo the step."""
        return None

    def flow(self, u0, which):
        """`projected_descent` to the `which` branch; returns (v, k, status,
        parts of v), v and its parts None when u0 has no fiber point."""
        self.which = which
        v, k, parts, status = self.projected_descent(u0, _FLOW_ITERS)
        return v, k, status, parts

    def newton(self, u, lam):
        return self.polish(u, lam, bordered=True)


def _identity_defect(params: ProblemParams, lam, parts: Parts) -> float:
    """Defect of the P_nu + Pohozaev multiplier identity, relative to lam a^2."""
    lhs = lam * params.a ** 2
    return float((lhs - identity_prediction(params, parts)) / lhs) if lhs != 0 else np.inf


def multiplier_check(result: NormalizedBranchResult) -> float:
    """`_identity_defect` of a branch, signed, from parts recomputed from its field."""
    params = result.params
    return _identity_defect(params, result.lambda_nu, compute_parts(params, result.field))


def _polish_branch(solver: _MassSolver, u0, which):
    """Flow from u0 (a `_fiber_seeds` seed, or any start on the grid) to the
    `which` branch, then the bordered Newton polish; returns (result, None),
    or (None, reason) when the flow finds no branch.  The result's exit
    reason is the polish's, or the flow's when the polish made no step."""
    u, it_flow, status, parts = solver.flow(u0, which)
    if u is None:
        return None, status
    u, lam, it_newton, _, reason = solver.newton(u, solver.shift(parts))
    params = solver.params
    parts = solver.parts(u)
    res, _, _, converged = solver.verdict(u, lam, parts)
    return NormalizedBranchResult(
        params=params, field=RadialField.from_values(solver.grid, u),
        level=energy_from_parts(params, parts), lambda_nu=float(lam),
        multiplier_identity_defect=abs(_identity_defect(params, lam, parts)),
        pde_residual_scaled=float(res), iterations=it_flow + it_newton, converged=converged,
        exit_reason=reason if it_newton else status), None


def _fiber_seeds(solver: _MassSolver) -> list[np.ndarray | None]:
    """The P+ and P- seeds from the mass fiber of one normalized Gaussian g of
    width 1.5, whose dilations t^(N/2) g(t r) are the normalized Gaussians of
    width 1.5 / t: each seed is that Gaussian at g's first fiber minimum (P+)
    or last fiber maximum (P-), its width capped at r_max / 3; None where the
    fiber has no such point."""
    grid, width = solver.grid, 1.5
    parts = solver.parts(solver.normalize(gaussian(grid, width=width).values))
    ts = [solver.fiber_level(parts, which)[0] for which in (1, -1)]
    return [None if t is None else
            solver.normalize(gaussian(grid, width=min(width / t, grid.r_max / 3.0)).values)
            for t in ts]


def normalized_branches(params: ProblemParams, grid: RadialGrid) -> NormalizedBranches:
    """The P+ local minimizer (when the fiber geometry admits one) and the
    P- mountain-pass branch of the mass-constrained problem.  Each branch is
    one seed from `_fiber_seeds`, one flow and one polish (`_polish_branch`).
    A branch's absent reason is set exactly when the branch is None: the
    seed's fiber has no point of that kind, or its flow could not start."""
    if not params.normalized:
        raise InvalidParameter("normalized_branches needs a normalized mode")
    solver = _MassSolver(params, grid)
    plus_seed, minus_seed = _fiber_seeds(solver)
    plus, plus_reason = ((None, "fiber admits no local minimum at this (nu, a)")
                         if plus_seed is None else _polish_branch(solver, plus_seed, 1))
    minus, minus_reason = ((None, "fiber admits no maximum at this (nu, a)")
                           if minus_seed is None else _polish_branch(solver, minus_seed, -1))
    return NormalizedBranches(plus=plus, minus=minus, plus_absent_reason=plus_reason,
                              minus_absent_reason=minus_reason)


# -------------------------------------------------- second solution rescale

@dataclass(frozen=True)
class RescaledSolution:
    field: RadialField
    params_effective: ProblemParams
    coupling: float
    pde_residual_scaled: float
    energy_no_mass: float        # E = I - 1/2 ||u||_2^2 (the comparison energy)


def second_solution_via_rescale(result: NormalizedBranchResult) -> RescaledSolution:
    """Map a converged P- normalized solution to a frequency-1 solution.

    v(x) = lam^(-(N-2)/4) u(lam^(-1/2) x) solves the free problem of the mode
    that leaves the same term uncoupled (`lambda` for HLS-critical, `mu` for
    Sobolev-critical).  The map multiplies each part by a power of lam, read
    off the exponent rows of `scaled_parts`; the coupling is nu times lam to
    the kinetic part's power minus the coupled part's:
    nu * lam^(-(2N-q(N-2))/4) or nu * lam^(-(N+alpha-p(N-2))/2).  v is
    `RadialField.rescaled`, node for node; a residual (`_Discrete.residual`)
    at or above _CONVERGED_TOL raises RescaleInconsistency.
    """
    if not result.converged or result.lambda_nu <= 0:
        raise InvalidParameter("rescale needs a converged branch with lambda_nu > 0")
    params = result.params
    lam = result.lambda_nu
    N = params.N
    v = result.field.rescaled(lam ** (-(N - 2) / 4.0), 1.0 / np.sqrt(lam))
    k = _MODES[params.mode].index(None)      # 0: the Riesz term is uncoupled, 1: the power term
    mode = next(m for m, c in _MODES.items() if c[k] is None and not m.startswith("normalized"))
    expo = [-(N - 2) / 4.0 * r + d / 2.0 for r, d in
            zip(_fiber_exponents(params, "ray"), _fiber_exponents(params, "dilation"))]
    coupling = getattr(params, _MODES[params.mode][1 - k]) * lam ** (expo[0] - expo[3 - k])
    eff = ProblemParams(N=N, alpha=params.alpha, p=params.p, q=params.q, mode=mode,
                        **{_MODES[mode][1 - k]: coupling})
    solver = _FreeSolver(eff, v.grid)
    u = _admissible(v.values)
    parts = solver.parts(u)
    _, res = solver.residual(u, eff.mass_coeff, parts.conv)
    if not res < _CONVERGED_TOL:
        raise RescaleInconsistency(
            f"rescaled candidate residual {res:.2e} is not below {_CONVERGED_TOL:.0e}; "
            "the multiplier extraction is inconsistent")
    level = energy_from_parts(eff, parts)
    return RescaledSolution(field=RadialField.from_values(solver.grid, u), params_effective=eff,
                            coupling=float(coupling),
                            pde_residual_scaled=res,
                            energy_no_mass=float(level - 0.5 * parts.mass))

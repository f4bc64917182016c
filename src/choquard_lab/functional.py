"""Energies, constraint functionals and fibering maps.

Equation (P) has two nonlinear terms, the Riesz interaction R and the
q-power P.  A problem mode says which of them carries a coupling, and
whether the mass is fixed; `_MODES` is that table:

* ``lambda``  : I(u) = 1/2 (K + M) - R/(2p) - (lam/q) P
* ``mu``      : I(u) = 1/2 (K + M) - (mu/2p) R - P/q
* ``general`` : I(u) = 1/2 (K + mc M) - (mu/2p) R - (lam/q) P
* ``normalized-hls`` / ``normalized-sobolev`` : mass-constrained energies
  1/2 K - R/(2p) - (nu/q) P with p = 2_alpha^* (HLS-critical) and
  1/2 K - (nu/2p) R - P/q with q = 2^* (Sobolev-critical): the term left
  uncoupled is the critical one.

K, M, R, P are the four integrals (kinetic, mass, Riesz interaction,
q-power).  Every energy-type quantity is one sum over them,
sum_i c_i t^e_i X_i, with the coefficients c of the params (`_weights`) and
the exponents e of a fiber (`_fiber_exponents`): the energy is the sum at
t = 1, a fiber energy the sum at t, and the Nehari, P_nu and Pohozaev
defects are fiber derivatives at t = 1.  Fibers are evaluated from these
exact scaling laws, never by re-quadrature, so critical-point
classification is free of interpolation noise.  A fiber derivative is a sum
of at most three powers of t, so one monotone Newton iteration in log t
(`_log_root`) solves its zeros to roundoff.  The same exponent rows give
the multiplier of the normalized modes, its P_nu + Pohozaev prediction and
the parts of a rescaled field amp * u(arg x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleGrid, InvalidParameter, NoProjection, UndefinedDefect
from .grid import RadialField, integrate, kinetic_energy, gradient_seminorm
from .riesz import _check_dimension, interaction_energy

__all__ = ["ProblemParams", "EnergyBreakdown", "Parts", "compute_parts",
           "energy_breakdown", "energy_from_parts", "multiplier_from_parts",
           "identity_prediction", "scaled_parts", "nehari_project", "fiber_profile",
           "FiberProfile"]

# mode -> the fields holding the couplings of the Riesz and of the power term;
# None is a coefficient of one
_MODES = {"lambda": (None, "lam"), "mu": ("mu", None), "general": ("mu", "lam"),
          "normalized-hls": (None, "nu"), "normalized-sobolev": ("nu", None)}


@dataclass(frozen=True)
class ProblemParams:
    """Problem family: dimension, Riesz order, exponents and couplings.

    ``mode`` names a row of `_MODES`: the fields whose values couple the
    Riesz and the power term, the other term carrying coefficient one.  A
    ``lambda`` or ``mu`` mode needs its one coupling positive, and a
    normalized mode needs its uncoupled term critical (p = 2_alpha^* or
    q = 2^*).  ``mass_coeff`` scales the L2 term of the free energies.  The
    couplings ``lam``, ``mu`` and ``nu`` are nonnegative in every mode.
    Derived exponents are recomputed on access, never stored.
    """

    N: int
    alpha: float
    p: float
    q: float
    mode: str = "general"
    lam: float = 0.0
    mu: float = 0.0
    nu: float = 0.0
    a: float = 1.0
    mass_coeff: float = 1.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise InvalidParameter(f"unknown mode {self.mode!r}")
        _check_dimension(self.N)
        if not 0 < self.alpha < self.N:
            raise InvalidParameter(f"alpha={self.alpha} outside (0, N)")
        lo, hi = (self.N + self.alpha) / self.N, self.two_alpha_star
        if not lo < self.p <= hi:
            raise InvalidParameter(f"p={self.p} outside ({lo}, {hi}]")
        if not 2 < self.q <= self.two_star:
            raise InvalidParameter(f"q={self.q} outside (2, {self.two_star}]")
        if not all(map(math.isfinite, (self.lam, self.mu, self.nu, self.a, self.mass_coeff))):
            raise InvalidParameter("lam, mu, nu, a and mass_coeff must be finite")
        if min(self.lam, self.mu, self.nu) < 0:
            raise InvalidParameter("couplings lam, mu and nu must be >= 0")
        if self.normalized and self.a <= 0:
            raise InvalidParameter("normalized modes need a > 0")
        couplings = _MODES[self.mode]
        if None in couplings:
            k = couplings.index(None)       # 0: the Riesz term is uncoupled, 1: the power term
            if self.normalized and (self.p, self.q)[k] != (self.two_alpha_star, self.two_star)[k]:
                raise InvalidParameter(f"{self.mode} mode requires "
                                       f"{('p = (N+alpha)/(N-2)', 'q = 2N/(N-2)')[k]}")
            if not self.normalized and getattr(self, couplings[1 - k]) <= 0:
                raise InvalidParameter(f"{self.mode} mode needs {couplings[1 - k]} > 0")

    # derived exponents -------------------------------------------------
    @property
    def two_star(self) -> float:
        return 2.0 * self.N / (self.N - 2)

    @property
    def two_alpha_star(self) -> float:
        return (self.N + self.alpha) / (self.N - 2)

    @property
    def gamma_q(self) -> float:
        return self.N * (self.q - 2) / (2.0 * self.q)

    @property
    def eta_p(self) -> float:
        return (self.N * self.p - self.N - self.alpha) / (2.0 * self.p)

    @property
    def normalized(self) -> bool:
        return self.mode.startswith("normalized")

    # energy coefficients: lookups in the mode's row of `_MODES` ---------
    @property
    def riesz_coeff(self) -> float:
        return self._coeff(0)

    @property
    def power_coeff(self) -> float:
        return self._coeff(1)

    def _coeff(self, term: int) -> float:
        name = _MODES[self.mode][term]
        return 1.0 if name is None else getattr(self, name)


@dataclass(frozen=True)
class Parts:
    """The four integrals of a field under given params."""

    kinetic: float
    mass: float
    riesz: float
    power: float


@dataclass(frozen=True)
class EnergyBreakdown(Parts):
    total: float
    nehari_defect: float
    pohozaev_defect: float


def compute_parts(params: ProblemParams, u: RadialField) -> Parts:
    """Kinetic / mass / Riesz / power integrals of u.

    The kinetic term uses the stored derivative when the field carries one
    (analytic, ODE-produced or `RadialField.rescaled` profiles) and the
    stiffness form otherwise (the form the solver is stationary for).
    IncompatibleGrid unless u's grid is in the dimension of params.
    """
    grid = u.grid
    if grid.N != params.N:
        raise IncompatibleGrid(f"a field in N = {grid.N} for a problem in N = {params.N}")
    if u.deriv is not None:
        K = gradient_seminorm(u)
    else:
        K = kinetic_energy(grid, u.values)
    M = integrate(grid, u.values ** 2)
    R = interaction_energy(grid, u, params.p, params.alpha)
    P = integrate(grid, np.abs(u.values) ** params.q)
    return Parts(kinetic=K, mass=M, riesz=R, power=P)


def energy_from_parts(params: ProblemParams, parts: Parts) -> float:
    """Total energy from precomputed parts: the fiber sum at t = 1."""
    return float(_fiber_sum(params, _weights(params), parts, "ray", 1.0, 0))


def _defects_from_parts(params: ProblemParams, parts: Parts):
    """Constraint and Pohozaev defects as fiber derivatives at t = 1.

    Free modes: the ray (Nehari) and dilation (Pohozaev) derivatives.
    Normalized modes: the mass-fiber derivative (the multiplier-free P_nu
    constraint) and the dilation derivative with the least-squares
    multiplier lam_hat = -(ray derivative)/a^2 in the mass slot.
    """
    g = _weights(params)
    if params.normalized:
        constraint = _fiber_sum(params, g, parts, "mass", 1.0, 1)
        g = (g[0], multiplier_from_parts(params, parts), g[2], g[3])
    else:
        constraint = _fiber_sum(params, g, parts, "ray", 1.0, 1)
    poho = _fiber_sum(params, g, parts, "dilation", 1.0, 1)
    scale = max(max(abs(gi * x) for gi, x in zip(g, _values(parts))), 1e-300)
    return constraint / scale, poho / scale


def energy_breakdown(params: ProblemParams, u: RadialField) -> EnergyBreakdown:
    """The four parts of u, its energy and its two defects, each defect
    relative to the largest weighted part.

    Free modes: the Nehari identity and the Pohozaev identity.  Normalized
    modes: the multiplier-free dilation constraint and the free Pohozaev
    identity evaluated with the extracted Lagrange multiplier.  The defects
    of the zero field are undefined (every term vanishes), so it raises
    `UndefinedDefect`.
    """
    if not np.any(u.values):
        raise UndefinedDefect("defects undefined for the zero field")
    parts = compute_parts(params, u)
    nd, pd = _defects_from_parts(params, parts)
    return EnergyBreakdown(*_values(parts), total=energy_from_parts(params, parts),
                           nehari_defect=nd, pohozaev_defect=pd)


# the four-part algebra and the fibering maps ---------------------------

def _fiber_exponents(params: ProblemParams, kind: str):
    """Exponents (eK, eM, eR, eP) of the four parts under the fiber map."""
    N, alpha, p, q = params.N, params.alpha, params.p, params.q
    if kind == "ray":
        return 2.0, 2.0, 2.0 * p, q
    if kind == "dilation":
        return float(N - 2), float(N), float(N + alpha), float(N)
    if kind == "mass":
        return 2.0, 0.0, float(N * p - N - alpha), q * params.gamma_q
    raise InvalidParameter(f"unknown fiber kind {kind!r}")


def _weights(params: ProblemParams):
    """Nehari weights g of the parts (K, M, R, P).

    The ray-fiber derivative at t = 1 (the Nehari functional) is
    sum_i g_i X_i, and the energy coefficients are c_i = g_i / rho_i with
    rho the ray exponents: c = (1/2, m/2, -cR/(2p), -cP/q).  The free modes
    weigh the mass with `mass_coeff`; in the normalized modes the mass is
    the constraint and stays out of the energy.
    """
    m = 0.0 if params.normalized else params.mass_coeff
    return (1.0, m, -params.riesz_coeff, -params.power_coeff)


def _values(parts: Parts):
    return parts.kinetic, parts.mass, parts.riesz, parts.power


def _fiber_sum(params: ProblemParams, g, parts: Parts, kind: str, t, order: int):
    """(d/dt)^order of sum_i c_i t^e_i X_i, e the exponents of `kind`.

    Every energy-type quantity is this sum: the energy at t = 1, the fiber
    energies at t, the defects as first derivatives at t = 1.  Derivative
    coefficients are formed as g_i (e_i / rho_i), so the ray derivative
    carries the Nehari weights exactly.  Terms with zero weight are skipped.
    """
    rho = _fiber_exponents(params, "ray")
    out = 0.0
    for gi, ri, ei, x in zip(g, rho, _fiber_exponents(params, kind), _values(parts)):
        if not gi:
            continue
        c = gi / ri if order == 0 else gi * (ei / ri)
        for k in range(1, order):
            c = c * (ei - k)
        out = out + c * t ** (ei - order) * x
    return out


def multiplier_from_parts(params: ProblemParams, parts: Parts) -> float:
    """Least-squares multiplier of a normalized mode: lam_hat = -ray'(1)/a^2."""
    return -_fiber_sum(params, _weights(params), parts, "ray", 1.0, 1) / params.a ** 2


def identity_prediction(params: ProblemParams, parts: Parts) -> float:
    """lam a^2 as the P_nu + Pohozaev identity predicts it: mass'(1) - ray'(1).

    At a normalized solution the mass-fiber derivative vanishes and the ray
    derivative is -lam a^2; the difference keeps only the nonlinear terms.
    """
    g = _weights(params)
    return (_fiber_sum(params, g, parts, "mass", 1.0, 1)
            - _fiber_sum(params, g, parts, "ray", 1.0, 1))


def scaled_parts(params: ProblemParams, parts: Parts, amp, arg) -> Parts:
    """The parts of amp * u(arg x): X_i -> amp^ray_i * arg^(-dilation_i) * X_i."""
    ray = _fiber_exponents(params, "ray")
    dil = _fiber_exponents(params, "dilation")
    return Parts(*(amp ** r * arg ** (-d) * x for r, d, x in zip(ray, dil, _values(parts))))


def fiber_energy(params: ProblemParams, parts: Parts, kind: str, t):
    """Energy along the fiber at t (a float or an array), from the parts' scaling laws."""
    return _fiber_sum(params, _weights(params), parts, kind, t, 0)


def _fiber_critical_points(params: ProblemParams, parts: Parts, kind: str,
                           t_lo: float = 1e-6, t_hi: float = 1e6):
    """Critical points of the fiber energy on [t_lo, t_hi] as (t, sign) pairs,
    ascending in t; sign is +1 at a local minimum and -1 at a local maximum,
    or 0 (degenerate) when |t E''(t)| is below 1e-9 of the fiber's term scale.

    Up to the factor -sign(a) t^b of its term a t^b whose sign stands alone,
    t E'(t) is the convex f(s) = B e^(e1 s) + C e^(e2 s) - A in s = log t,
    A, B, C >= 0, with its minimum at s* (infinite when e1 and e2 share a
    sign) and at most one zero on either side of it.
    """
    g = _weights(params)
    terms = {}
    for gi, ri, ei, x in zip(g, _fiber_exponents(params, "ray"),
                             _fiber_exponents(params, kind), _values(parts)):
        terms[ei] = terms.get(ei, 0.0) + gi * (ei / ri) * x
    pos = [(b, a) for b, a in terms.items() if a > 0]
    neg = [(b, -a) for b, a in terms.items() if a < 0]
    if not pos or not neg:
        return []
    (b0, A), rest = (pos[0], neg) if len(pos) == 1 else (neg[0], pos)
    (e1, B), (e2, C) = [(b - b0, c) for b, c in rest + [(rest[0][0], 0.0)]][:2]
    if e1 * e2 < 0:     # f'(s*) = 0
        star = (math.log(-e1 / e2) + math.log(B) - math.log(C)) / (e2 - e1)
    else:
        star = -math.inf if e1 > 0 else math.inf
    lo, hi = math.log(t_lo), math.log(t_hi)
    mid = min(max(star, lo), hi)
    if B * math.exp(e1 * mid) + C * math.exp(e2 * mid) > A:
        return []       # f's least value on the window is positive
    # the zero left of s* through s -> -s, and the one right of it; both end
    # at s* when they are within roundoff of each other
    left = _log_root(A, B, C, -e1, -e2, -hi, -lo, -mid) if star >= lo else None
    right = _log_root(A, B, C, e1, e2, lo, hi, mid) if star <= hi else None
    roots = sorted({s for s in (None if left is None else -left, right) if s is not None})
    size = tuple(abs(gi) for gi in g)
    points = []
    for t0 in map(math.exp, roots):
        curv = _fiber_sum(params, g, parts, kind, t0, 2) * t0
        scale = _fiber_sum(params, size, parts, kind, t0, 1)
        points.append((t0, 0 if abs(curv) < 1e-9 * scale else int(np.sign(curv))))
    return points


_NEWTON_ITERS = 100
_RAY_RANGE = 46 * math.log(2.0)   # ray roots are sought in [2^-46, 2^46]


def _log_root(A, B, C, e1, e2, lo, hi, floor):
    """The zero s in [lo, hi] at which the convex f(s) = B e^(e1 s) +
    C e^(e2 s) - A (A, B, C >= 0) increases, or None.

    Newton starts right of it, at the single-term bound min log(A/c)/e over
    the terms with e > 0, so the iterates fall monotonically onto it.  They
    are held in [floor, hi + 1], where the terms stay finite.  Python floats:
    numpy's per-call overhead would be most of the cost.  The start takes
    numpy's log (math.log differs from it in the last bit on about 1e-4 of
    arguments, and so would move roots); -inf where A / c underflows.
    """
    A, B, C, s = float(A), float(B), float(C), math.inf
    for c, e in ((B, e1), (C, e2)):
        if c > 0 and e > 0:
            s = min(s, float(np.log(A / c)) / e if A / c > 0 else -math.inf)
    if not lo <= s < math.inf:
        return None
    cap = hi + 1.0
    s = min(s, cap)
    for _ in range(_NEWTON_ITERS):
        tB, tC = B * math.exp(e1 * s), C * math.exp(e2 * s)
        step = (tB + tC - A) / (e1 * tB + e2 * tC)
        s = max(min(s - step, cap), floor)
        # the steps fall monotonically; one at roundoff level ends the descent
        if step <= 4e-16 * (abs(s) + 1.0) or s <= floor:
            break
    return s if lo <= s <= hi else None


def _ray_root(params: ProblemParams, parts: Parts):
    """The unique t* > 0 with t* u on the Nehari manifold, or None when both
    nonlinear terms vanish, A <= 0 or t* leaves [2^-46, 2^46]: the zero of
    B e^((2p-2) s) + C e^((q-2) s) - A in s = log t, which increases since
    `ProblemParams` admits no negative coupling.
    """
    g, (K, M, R, P) = _weights(params), _values(parts)
    s = _log_root(g[0] * K + g[1] * M, -(g[2] * R), -(g[3] * P), 2 * params.p - 2,
                  params.q - 2, -_RAY_RANGE, _RAY_RANGE, -_RAY_RANGE - 1.0)
    return None if s is None else math.exp(s)


@dataclass(frozen=True)
class FiberProfile:
    ts: np.ndarray
    energies: np.ndarray
    critical_ts: tuple
    second_derivative_signs: tuple


def fiber_profile(params: ProblemParams, u: RadialField, kind: str, ts) -> FiberProfile:
    """Energy profile along a fiber with located critical points.

    Critical points are the zeros of the exact t-derivative on the window
    [min ts, max ts], solved to roundoff by `_fiber_critical_points` however
    ts samples it; second-derivative signs classify them (+1 local min,
    -1 local max, 0 degenerate).  On the mass fiber these are the P+, P-
    and P0 points of the constraint: a local minimum of t -> E(u^t) is
    exactly positive fiber curvature on the mass sphere.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        raise InvalidParameter("empty fiber grid")
    if not np.all(np.isfinite(ts) & (ts > 0)):
        raise InvalidParameter("fiber grid must be finite and positive")
    parts = compute_parts(params, u)
    points = _fiber_critical_points(params, parts, kind, ts.min(), ts.max())
    return FiberProfile(ts=ts, energies=fiber_energy(params, parts, kind, ts),
                        critical_ts=tuple(t for t, _ in points),
                        second_derivative_signs=tuple(sign for _, sign in points))


def nehari_project(params: ProblemParams, u: RadialField):
    """Unique t* > 0 with t*u on the Nehari manifold, and the projected field.

    Solves t^2 (K + mc M) = cR t^(2p) R + cP t^q P; uniqueness holds because
    the right side divided by t^2 is strictly increasing (p > 1, q > 2).
    """
    if params.normalized:
        raise InvalidParameter("ray projection applies to the free modes only")
    t_star = _ray_root(params, compute_parts(params, u))
    if t_star is None:
        raise NoProjection("no Nehari projection: the nonlinear terms vanish or the ray "
                           f"root leaves [{math.exp(-_RAY_RANGE):.2g}, {math.exp(_RAY_RANGE):.2g}]")
    deriv = t_star * u.deriv if u.deriv is not None else None
    return t_star, RadialField.from_values(u.grid, t_star * u.values, deriv=deriv)

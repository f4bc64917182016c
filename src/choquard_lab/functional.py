"""Energies, constraint functionals and fibering maps.

Four problem modes share one parts-based implementation:

* ``lambda``  : I(u) = 1/2 (K + M) - R/(2p) - (lam/q) P
* ``mu``      : I(u) = 1/2 (K + M) - (mu/2p) R - P/q
* ``general`` : I(u) = 1/2 (K + mc M) - (mu/2p) R - (lam/q) P
* ``normalized-hls`` / ``normalized-sobolev`` : mass-constrained energies
  with the critical term carrying coefficient one.

K, M, R, P are the four integrals (kinetic, mass, Riesz interaction,
q-power).  Every energy-type quantity is one sum over them,
sum_i c_i t^e_i X_i, with the coefficients c of the params (`_weights`) and
the exponents e of a fiber (`_fiber_exponents`): the energy is the sum at
t = 1, a fiber energy the sum at t, and the Nehari, P_nu and Pohozaev
defects are fiber derivatives at t = 1.  Fibers are evaluated from these
exact scaling laws, never by re-quadrature, so critical-point
classification is free of interpolation noise.  The same exponent rows give
the multiplier of the normalized modes, its P_nu + Pohozaev prediction and
the parts of a rescaled field amp * u(arg x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConstraintViolation, InvalidParameter, NoProjection,
                     UndefinedDefect)
from .grid import RadialField, integrate, kinetic_energy, gradient_seminorm
from .riesz import kernel_table

__all__ = ["ProblemParams", "EnergyBreakdown", "Parts", "compute_parts",
           "energy_breakdown", "energy_from_parts", "stationarity_defects",
           "multiplier_from_parts", "identity_prediction", "scaled_parts",
           "nehari_project", "fiber_profile", "FiberProfile",
           "mass_fiber_classify", "FiberPoint"]

_MODES = ("lambda", "mu", "general", "normalized-hls", "normalized-sobolev")


@dataclass(frozen=True)
class ProblemParams:
    """Problem family: dimension, Riesz order, exponents and couplings.

    ``mass_coeff`` scales the L2 term of the free energies; rescaled frames
    (small-coupling studies) use values != 1.  The couplings ``lam``, ``mu``
    and ``nu`` are nonnegative in every mode.  Derived exponents are
    recomputed on access, never stored.
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
        if self.N < 3:
            raise InvalidParameter("N must be >= 3")
        if not 0 < self.alpha < self.N:
            raise InvalidParameter(f"alpha={self.alpha} outside (0, N)")
        lo, hi = (self.N + self.alpha) / self.N, self.two_alpha_star
        if not lo < self.p <= hi:
            raise InvalidParameter(f"p={self.p} outside ({lo}, {hi}]")
        if not 2 < self.q <= self.two_star:
            raise InvalidParameter(f"q={self.q} outside (2, {self.two_star}]")
        if self.lam < 0 or self.mu < 0:
            raise InvalidParameter("couplings lam and mu must be >= 0")
        if self.mode == "lambda" and self.lam <= 0:
            raise InvalidParameter("lambda mode needs lam > 0")
        if self.mode == "mu" and self.mu <= 0:
            raise InvalidParameter("mu mode needs mu > 0")
        if self.mode == "normalized-hls" and self.p != self.two_alpha_star:
            raise InvalidParameter("normalized-hls mode requires p = (N+alpha)/(N-2)")
        if self.mode == "normalized-sobolev" and self.q != self.two_star:
            raise InvalidParameter("normalized-sobolev mode requires q = 2N/(N-2)")
        if self.normalized and (self.nu < 0 or self.a <= 0):
            raise InvalidParameter("normalized modes need nu >= 0 and a > 0")

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
    def gamma_exp(self) -> float:
        return 2.0 * self.N - (self.N - 2) * self.q

    @property
    def eta_exp(self) -> float:
        return self.N + self.alpha - self.p * (self.N - 2)

    @property
    def normalized(self) -> bool:
        return self.mode.startswith("normalized")

    # energy coefficients ----------------------------------------------
    @property
    def riesz_coeff(self) -> float:
        if self.mode == "lambda":
            return 1.0
        if self.mode in ("mu", "general"):
            return self.mu
        if self.mode == "normalized-hls":
            return 1.0
        return self.nu

    @property
    def power_coeff(self) -> float:
        if self.mode == "lambda":
            return self.lam
        if self.mode == "mu":
            return 1.0
        if self.mode == "general":
            return self.lam
        if self.mode == "normalized-hls":
            return self.nu
        return 1.0

    def with_couplings(self, **kw) -> "ProblemParams":
        return replace(self, **kw)


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


def compute_parts(params: ProblemParams, u: RadialField, use_deriv: bool = True) -> Parts:
    """Kinetic / mass / Riesz / power integrals of u.

    The kinetic term uses the stored derivative when the field carries one
    (high-accuracy path for analytic or ODE-produced profiles) and the
    stiffness form otherwise (the form the solver is stationary for).
    """
    grid = u.grid
    if use_deriv and u.deriv is not None:
        K = gradient_seminorm(u)
    else:
        K = kinetic_energy(grid, u.values)
    M = integrate(grid, u.values ** 2)
    tab = kernel_table(grid, params.alpha)
    up = np.abs(u.values) ** params.p
    R = tab.bilinear(up, up)
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
    parts = compute_parts(params, u)
    nd, pd = _defects_from_parts(params, parts)
    return EnergyBreakdown(*_values(parts), total=energy_from_parts(params, parts),
                           nehari_defect=nd, pohozaev_defect=pd)


def stationarity_defects(params: ProblemParams, u: RadialField):
    """(nehari_defect, pohozaev_defect), both relative to the largest term.

    Free modes: the Nehari identity and Lemma-type Pohozaev identity.
    Normalized modes: the multiplier-free dilation constraint and the free
    Pohozaev identity evaluated with the extracted Lagrange multiplier.
    """
    if not np.any(u.values):
        raise UndefinedDefect("defects undefined for the zero field")
    parts = compute_parts(params, u)
    return _defects_from_parts(params, parts)


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
    """Energy along the fiber, from the closed scaling laws of the parts."""
    return _fiber_sum(params, _weights(params), parts, kind, np.asarray(t, dtype=float), 0)


def _fiber_derivative(params: ProblemParams, parts: Parts, kind: str):
    """d/dt and d^2/dt^2 of the fiber energy as callables, and the size of
    the individual first-derivative terms (for degeneracy tests)."""
    g = _weights(params)
    size = tuple(abs(gi) for gi in g)

    def d(t):
        return _fiber_sum(params, g, parts, kind, t, 1)

    def d2(t):
        return _fiber_sum(params, g, parts, kind, t, 2)

    def dscale(t):
        return _fiber_sum(params, size, parts, kind, t, 1)

    return d, d2, dscale


def _fiber_critical_points(params: ProblemParams, parts: Parts, kind: str,
                           t_lo: float = 1e-6, t_hi: float = 1e6, samples: int = 4001):
    """Critical points of the fiber energy on [t_lo, t_hi] as (t, sign) pairs.

    The zeros of the exact t-derivative are scanned on `samples` log-spaced
    points; sign is +1 at a local minimum and -1 at a local maximum, or 0
    (degenerate) when |t E''(t)| is below 1e-9 of the fiber's term scale.
    """
    d, d2, dscale = _fiber_derivative(params, parts, kind)
    points = []
    for t0 in _fiber_roots(d, t_lo, t_hi, samples):
        curv = d2(t0) * t0
        points.append((t0, 0 if abs(curv) < 1e-9 * dscale(t0) else int(np.sign(curv))))
    return points


def _fiber_roots(d, t_lo: float, t_hi: float, samples: int):
    """Zeros of d on [t_lo, t_hi]: sign changes on a log-spaced scan of
    `samples` points, refined by brentq; a sample where d vanishes exactly
    counts as a zero, and zeros closer than 1e-10 relative are merged."""
    from scipy.optimize import brentq
    ts = np.exp(np.linspace(np.log(t_lo), np.log(t_hi), samples))
    vals = d(ts)
    change = vals[:-1] * vals[1:] < 0
    roots = []
    for i in np.nonzero(change | (vals[:-1] == 0.0))[0]:
        t0 = brentq(d, ts[i], ts[i + 1], xtol=1e-14, rtol=1e-13) if change[i] else ts[i]
        if not roots or abs(t0 - roots[-1]) >= 1e-10 * t0:
            roots.append(t0)
    return roots


_RAY_RANGE = 46 * np.log(2.0)   # ray roots are sought in [2^-46, 2^46]
_RAY_NEWTON_ITERS = 100


def _ray_root(params: ProblemParams, parts: Parts):
    """The unique t* > 0 with t* u on the Nehari manifold, or None.

    Solves t^2 (K + mc M) = cR t^(2p) R + cP t^q P, i.e. the zero of
    f(s) = B e^((2p-2) s) + C e^((q-2) s) - A in s = log t.  With B, C >= 0
    (`ProblemParams` admits no negative coupling) f is a sum of exponentials
    with positive exponents minus a constant: convex and increasing.  So
    Newton started to the right of the root, at the single-term bound
    min_i log(A / c_i) / e_i, descends monotonically onto it.  None when
    both nonlinear terms vanish, A <= 0, or the root leaves [2^-46, 2^46].

    The parts may be arrays: the roots are then solved together, with NaN
    where a scalar call would return None.
    """
    g, (K, M, R, P) = _weights(params), _values(parts)
    e1, e2 = 2 * params.p - 2, params.q - 2
    scalar = np.ndim(K + M + R + P) == 0
    A, B, C = (np.atleast_1d(np.asarray(x, dtype=float))
               for x in (g[0] * K + g[1] * M, -(g[2] * R), -(g[3] * P)))
    with np.errstate(all="ignore"):     # log(A / c) is +-inf where it over- or underflows
        s = np.minimum(np.where(B > 0, np.log(A / B) / e1, np.inf),
                       np.where(C > 0, np.log(A / C) / e2, np.inf))
    found = np.isfinite(s) & (s >= -_RAY_RANGE)
    # the iterates are held one past the range, where the terms stay finite: a
    # root beyond it leaves them there, with a step that does not descend
    cap = _RAY_RANGE + 1.0
    if scalar:
        # Python floats: numpy's per-call overhead would be most of the cost
        if not found[0]:
            return None
        A, B, C, s = float(A[0]), float(B[0]), float(C[0]), min(float(s[0]), cap)
        exp, every, lower = math.exp, bool, min
    else:
        # a rootless entry iterates on the benign e^(e1 s) = 1 and is masked after
        A, B, C, s = (np.where(found, x, fill) for x, fill in
                      ((A, 1.0), (B, 1.0), (C, 0.0), (np.minimum(s, cap), 0.0)))
        exp, every, lower = np.exp, np.all, np.minimum
    for _ in range(_RAY_NEWTON_ITERS):
        tB, tC = B * exp(e1 * s), C * exp(e2 * s)
        step = (tB + tC - A) / (e1 * tB + e2 * tC)
        s = lower(s - step, cap)
        # the steps fall monotonically; one at roundoff level ends the descent
        if every(step <= 4e-16 * (abs(s) + 1.0)):
            break
    if scalar:
        return math.exp(s) if abs(s) <= _RAY_RANGE else None
    found &= np.abs(s) <= _RAY_RANGE
    return np.where(found, np.exp(np.where(found, s, 0.0)), np.nan)


@dataclass(frozen=True)
class FiberProfile:
    kind: str
    ts: np.ndarray
    energies: np.ndarray
    critical_ts: tuple
    second_derivative_signs: tuple


def fiber_profile(params: ProblemParams, u: RadialField, kind: str, ts) -> FiberProfile:
    """Energy profile along a fiber with located critical points.

    Critical points are found on the sampled window by sign changes of the
    exact t-derivative, refined by bisection; second-derivative signs
    classify them (+1 local min, -1 local max, 0 degenerate).
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        raise InvalidParameter("empty fiber grid")
    if np.any(ts <= 0):
        raise InvalidParameter("fiber grid must be positive")
    parts = compute_parts(params, u)
    points = _fiber_critical_points(params, parts, kind, ts.min(), ts.max(),
                                    max(4 * len(ts), 400))
    return FiberProfile(kind=kind, ts=ts, energies=fiber_energy(params, parts, kind, ts),
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
    return t_star, u.with_values(t_star * u.values, deriv=deriv)


@dataclass(frozen=True)
class FiberPoint:
    t: float
    branch: str  # "+", "0", or "-"


def mass_fiber_classify(params: ProblemParams, u: RadialField,
                        mass_rtol: float = 1e-8):
    """Critical points of the mass-preserving fiber with P+/P0/P- labels.

    A local minimum of t -> E(u^t) is a P+ point (the defining second-variation
    inequality is exactly positivity of the fiber curvature on the constraint),
    a local maximum a P- point; curvature below 1e-9 of the fiber's term
    scale is flagged P0.
    """
    if not params.normalized:
        raise InvalidParameter("mass-fiber classification needs a normalized mode")
    parts = compute_parts(params, u)
    mdef = abs(parts.mass - params.a ** 2) / params.a ** 2
    if mdef > mass_rtol:
        raise ConstraintViolation(f"field off the mass sphere: |mass - a^2|/a^2 = {mdef:.2e}")
    return [FiberPoint(t=t0, branch={1: "+", 0: "0", -1: "-"}[sign])
            for t0, sign in _fiber_critical_points(params, parts, "mass")]

"""The cutoff bubble family: construction, mass calibration, and the four
integrals of a bubble used by the concentration-rate sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, ResolutionError
from .grid import (RadialField, RadialGrid, integrate, kinetic_energy, make_grid,
                   sphere_surface)
from .profiles import cutoff_bubble, smoothstep_cutoff, talenti_peak
from .riesz import interaction_energy

__all__ = ["BubbleSpec", "bubble", "mass_radius", "bubble_report", "bubble_sweep",
           "BubbleReport"]


@dataclass(frozen=True)
class BubbleSpec:
    """Concentration parameter and cutoff radius."""

    N: int
    eps: float
    R: float

    def __post_init__(self):
        # written so that NaN fails each check
        if not 0 < self.eps < math.inf:
            raise InvalidParameter(f"eps={self.eps} must be positive and finite")
        if not 4 * self.eps <= self.R < math.inf:
            raise InvalidParameter(f"cutoff R={self.R} violates 4 eps <= R < inf (scale separation)")


def bubble(spec: BubbleSpec, grid: RadialGrid) -> RadialField:
    """V_eps(r) = eps^(-(N-2)/2) W_1(r/eps) * phi(r/R) on the grid.

    Requires nodes below eps/4 and coverage past 2R so both scales are seen.
    """
    if grid.N != spec.N:
        raise InvalidParameter("grid dimension does not match the bubble spec")
    if grid.r[0] > spec.eps / 4:
        raise ResolutionError(f"first node {grid.r[0]:.3g} above eps/4 = {spec.eps/4:.3g}")
    if spec.R < grid.r_max < 2 * spec.R:
        # the cutoff bridge [R, 2R] must be fully on the grid; R >= r_max is
        # the documented inactive-cutoff limit where V equals the bare core
        raise ResolutionError(f"grid r_max {grid.r_max:.3g} truncates the cutoff bridge"
                              f" [{spec.R:.3g}, {2*spec.R:.3g}]")
    return cutoff_bubble(grid, spec.eps, spec.R)


def _mass_integral(N: int, eps: float, R: float) -> float:
    """||V_eps||_2^2 by adaptive quadrature of the closed-form integrand."""
    from scipy.integrate import quad
    c = talenti_peak(N) ** 2

    def f(r):
        w = eps ** (-(N - 2.0)) * c * (1.0 + (r / eps) ** 2) ** (-(N - 2.0))
        return w * smoothstep_cutoff(np.array([r / R]))[0] ** 2 * r ** (N - 1)

    total = 0.0
    for lo, hi in ((0.0, eps), (eps, R), (R, 2 * R)):
        if hi > lo:
            val, _ = quad(f, lo, hi, limit=200)
            total += val
    return sphere_surface(N) * total


def mass_radius(N: int, a: float, eps: float) -> float:
    """Cutoff radius R_eps with ||V_eps||_2^2 = a^2 (bracketed root in log R,
    searched up to R = 1e12 eps)."""
    from scipy.optimize import brentq
    if not 0 < a < math.inf:
        raise InvalidParameter(f"target mass a={a} must be positive and finite")
    if not 0 < eps < math.inf:
        raise InvalidParameter(f"eps={eps} must be positive and finite")
    lo = 4.0 * eps
    if _mass_integral(N, eps, lo) >= a ** 2:
        raise InvalidParameter(
            f"mass a={a} unreachable with separated scales at eps={eps} (already "
            "exceeded at R = 4 eps)")
    f = lambda lR: _mass_integral(N, eps, np.exp(lR)) - a ** 2
    l_lo = np.log(lo)
    l_hi = np.log(lo * 4)
    while f(l_hi) < 0:
        l_hi += np.log(4.0)
        if np.exp(l_hi) > 1e12 * eps:
            raise InvalidParameter("no cutoff radius reaches the target mass in range")
    return float(np.exp(brentq(f, l_lo, l_hi, xtol=1e-13, rtol=1e-13)))


@dataclass(frozen=True)
class BubbleReport:
    kinetic: float
    sobolev_power: float        # ||V||_{2*}^{2*}
    riesz: float | None         # interaction at the requested (p, alpha)
    q_power: float | None       # ||V||_q^q


def bubble_report(V: RadialField, p: float | None = None, alpha: float | None = None,
                  q: float | None = None) -> BubbleReport:
    """The four integrals of a built bubble; the Riesz term needs p and
    alpha, the q-power term q."""
    grid = V.grid
    N = grid.N
    two_star = 2.0 * N / (N - 2)
    kin = kinetic_energy(grid, V.values)
    sob = integrate(grid, np.abs(V.values) ** two_star)
    R = interaction_energy(grid, V, p, alpha) if (p is not None and alpha is not None) else None
    P = integrate(grid, np.abs(V.values) ** q) if q is not None else None
    return BubbleReport(kinetic=kin, sobolev_power=sob, riesz=R, q_power=P)


def bubble_sweep(N: int, a: float, eps_values, q: float | None = None,
                 p: float | None = None, alpha: float | None = None,
                 n: int = 1600, grading: float = 3.0):
    """Mass-calibrated bubbles across an eps grid, one adapted grid per eps.

    Returns (R_eps list, reports list); rate fits over the sweep are the
    caller's business (`asymptotics.rate_fit`).
    """
    radii, reports = [], []
    for eps in eps_values:
        R = mass_radius(N, a, eps)
        grid = make_grid(N, 2.5 * R, n, grading)
        V = bubble(BubbleSpec(N=N, eps=float(eps), R=float(R)), grid)
        radii.append(R)
        reports.append(bubble_report(V, p=p, alpha=alpha, q=q))
    return radii, reports

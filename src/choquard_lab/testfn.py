"""The cutoff bubble family: construction, mass calibration, and the
energy-expansion ledger used by the concentration-rate sweeps."""

from __future__ import annotations

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
    """Concentration parameter, cutoff radius and optional target mass."""

    N: int
    eps: float
    R: float
    a: float | None = None

    def __post_init__(self):
        if self.eps <= 0:
            raise InvalidParameter("eps must be positive")
        if self.R < 4 * self.eps:
            raise InvalidParameter(f"cutoff R={self.R} violates R >= 4 eps (scale separation)")


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
    if a <= 0:
        raise InvalidParameter("target mass a must be positive")
    if eps <= 0:
        raise InvalidParameter("eps must be positive")
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
    spec: BubbleSpec
    kinetic: float
    sobolev_power: float        # ||V||_{2*}^{2*}
    riesz: float | None         # interaction at the requested (p, alpha)
    q_power: float | None       # ||V||_q^q
    kinetic_deviation: float    # kinetic - S^{N/2}
    sobolev_deviation: float    # ||V||_{2*}^{2*} - S^{N/2}


def bubble_report(V: RadialField, spec: BubbleSpec, S: float,
                  p: float | None = None, alpha: float | None = None,
                  q: float | None = None) -> BubbleReport:
    """All four integrals of a built bubble plus deviations from the leading
    constants of the expansions."""
    grid = V.grid
    N = grid.N
    two_star = 2.0 * N / (N - 2)
    kin = kinetic_energy(grid, V.values)
    sob = integrate(grid, np.abs(V.values) ** two_star)
    R = interaction_energy(grid, V, p, alpha) if (p is not None and alpha is not None) else None
    P = integrate(grid, np.abs(V.values) ** q) if q is not None else None
    lead = S ** (N / 2.0)
    return BubbleReport(spec=spec, kinetic=kin, sobolev_power=sob, riesz=R, q_power=P,
                        kinetic_deviation=kin - lead, sobolev_deviation=sob - lead)


def bubble_sweep(N: int, a: float, eps_values, q: float | None = None,
                 p: float | None = None, alpha: float | None = None,
                 n: int = 1600, grading: float = 3.0, S: float | None = None):
    """Mass-calibrated bubbles across an eps grid, one adapted grid per eps.

    Returns (R_eps list, reports list); rate fits over the sweep are the
    caller's business (`asymptotics.rate_fit`).
    """
    from .constants import sobolev_constant
    S = S if S is not None else sobolev_constant(N)
    radii = []
    reports = []
    for eps in eps_values:
        R = mass_radius(N, a, eps)
        grid = make_grid(N, 2.5 * R, n, grading)
        if grid.r[0] > eps / 4:
            raise ResolutionError(f"grid does not resolve eps={eps} at n={n}, grading={grading}")
        spec = BubbleSpec(N=N, eps=float(eps), R=float(R), a=a)
        V = bubble(spec, grid)
        radii.append(R)
        reports.append(bubble_report(V, spec, S, p=p, alpha=alpha, q=q))
    return radii, reports

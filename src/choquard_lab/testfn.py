"""The cutoff bubble family: construction, mass calibration, and the four
integrals of a bubble used by the concentration-rate sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import InvalidParameter, ResolutionError
from .grid import (RadialField, RadialGrid, integrate, kinetic_energy, make_grid,
                   sphere_surface)
from .profiles import cutoff_bubble, smoothstep_cutoff, talenti_peak
from .riesz import interaction_energy

__all__ = ["BubbleSpec", "bubble", "mass_radius", "bubble_report", "bubble_sweep",
           "BubbleReport"]

# one 20-point Gauss-Legendre rule (16 reach roundoff), on [0, arctan(1/X)] for the N >= 5
# core's tail and on the bridge s in [1, 2]: weights phi^2 and -2 s phi phi' = 60 s phi (s-1)^2 (2-s)^2
_T, _W = np.polynomial.legendre.leggauss(20)
_S = 1.5 + 0.5 * _T
_BRIDGE = 0.5 * _W * smoothstep_cutoff(_S) ** 2
_BRIDGE_SLOPE = 30.0 * _W * _S * smoothstep_cutoff(_S) * (_S - 1) ** 2 * (2 - _S) ** 2


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


def _shape(N: int, X: float):
    """J(X) = int rho^(N-1) (1+rho^2)^(2-N) phi(rho/X)^2 drho, X J'(X) and the deficit
    J(inf) - J(X) at X >= 4, so that ||V_eps||_2^2 = |S^(N-1)| W_1(0)^2 eps^2 J(R/eps).
    The core [0, X] is closed at N = 3, 4, where J is unbounded and the deficit inf.  At
    N >= 5, J(inf) = B(N/2, (N-4)/2) / 2 and the deficit is the core's tail, cos^(N-1)
    sin^(N-5) over [0, arctan(1/X)], less the bridge: no cancellation as X grows."""
    f = X * (X * _S) ** (3 - N) * (1.0 + (X * _S) ** -2.0) ** (2 - N)
    bridge, slope = float(_BRIDGE @ f), float(_BRIDGE_SLOPE @ f)
    if N == 3:
        return X - math.atan(X) + bridge, slope, math.inf
    if N == 4:
        return 0.5 * (math.log1p(X * X) - X * X / (1.0 + X * X)) + bridge, slope, math.inf
    h = 0.5 * math.atan(1.0 / X)
    th = h * (1.0 + _T)
    deficit = h * float(_W @ (np.cos(th) ** (N - 1) * np.sin(th) ** (N - 5))) - bridge
    return _limit(N) - deficit, slope, deficit


def _limit(N: int) -> float:
    """J(inf) at N >= 5, a Beta integral."""
    return 0.5 * math.gamma(N / 2) * math.gamma((N - 4) / 2) / math.gamma(N - 2)


def mass_radius(N: int, a: float, eps: float) -> float:
    """Cutoff radius R_eps with ||V_eps||_2^2 = a^2: Newton in x = log(R/eps) inside
    the bracket [log 4, hi] it narrows, bisecting a step that leaves it.  Newton's
    variable is log J at N = 3, 4.  At N >= 5 the mass is bounded in R, and it is the
    log of the deficit J(inf) - J, near-linear in x however close the target lies to
    the limit; a target at or above the limit fails at once."""
    if not (isinstance(N, Integral) and N >= 3 and 0 < a < math.inf and 0 < eps < math.inf):
        raise InvalidParameter(f"N={N!r}, a={a}, eps={eps}: need an integer N >= 3, a, eps > 0")
    target = 2.0 * (math.log(a) - math.log(eps)) - math.log(sphere_surface(N)
                                                             * talenti_peak(N) ** 2)
    # (R/eps)^2 stays finite, and at N >= 5 the deficit ~ (R/eps)^(4-N) above 1e-150
    lo, hi = math.log(4.0), math.log(1e150) / max(1, N - 4)
    x, (J, dJ, D) = lo, _shape(N, 4.0)
    if N < 5:
        found = math.log(J) < target <= math.log(_shape(N, math.exp(hi))[0])
    else:
        D_t = _limit(N) - math.exp(target)
        found = 0 < D_t < D
    if not found:
        raise InvalidParameter(f"no R in [4 eps, {math.exp(hi):.3g} eps] has mass"
                               f" a^2 = {a * a:g} at eps={eps}")
    for _ in range(200):
        # h rises with x; slope is dh/dx
        h, slope = (math.log(J) - target, dJ / J) if N < 5 else (math.log(D_t / D), dJ / D)
        lo, hi = (x, hi) if h < 0 else (lo, x)
        dx = -h / slope if slope else math.inf
        if abs(dx) > 1e-12 * x and not lo < x + dx < hi:
            dx = 0.5 * (lo + hi) - x
        x += dx
        if abs(dx) <= 1e-12 * x:
            return eps * math.exp(x)
        J, dJ, D = _shape(N, math.exp(x))
    raise InvalidParameter(f"cutoff radius for a={a} at eps={eps} unresolved in 200 steps")


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
    grid, N = V.grid, V.grid.N
    kin = kinetic_energy(grid, V.values)
    sob = integrate(grid, np.abs(V.values) ** (2.0 * N / (N - 2)))
    R = interaction_energy(grid, V, p, alpha) if (p is not None and alpha is not None) else None
    P = integrate(grid, np.abs(V.values) ** q) if q is not None else None
    return BubbleReport(kinetic=kin, sobolev_power=sob, riesz=R, q_power=P)


def bubble_sweep(N: int, a: float, eps_values, q: float | None = None,
                 p: float | None = None, alpha: float | None = None,
                 n: int = 1600, grading: float = 3.0):
    """Mass-calibrated bubbles across an eps grid, one adapted grid per eps:
    (R_eps list, reports list).  Rate fits are the caller's (`asymptotics.rate_fit`)."""
    radii = [mass_radius(N, a, eps) for eps in eps_values]
    return radii, [bubble_report(bubble(BubbleSpec(N=N, eps=float(eps), R=float(R)),
                                        make_grid(N, 2.5 * R, n, grading)),
                                 p=p, alpha=alpha, q=q) for eps, R in zip(eps_values, radii)]

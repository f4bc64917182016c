"""Concentration-scale extraction, Kelvin transform, and log-log rate fits
against the predicted asymptotic exponents."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .grid import RadialField
from .profiles import talenti_scale

__all__ = ["RateFit", "concentration_scale", "kelvin", "tail_exponent_fit", "rate_fit"]


def concentration_scale(f: RadialField) -> float:
    """xi = (W_1(0)/w(0))^(2/(N-2)): the dilation matching the peak to the bubble."""
    if f.origin <= 0:
        raise InvalidParameter("concentration scale undefined for vanishing peak")
    return float(talenti_scale(f.grid.N, f.origin))


def kelvin(f: RadialField) -> RadialField:
    """Kelvin transform K[u](r) = r^-(N-2) u(1/r) by interpolation, on f's grid.

    The grid must reach past 1/r_max; values needing u beyond r_max
    (i.e. r < 1/r_max) are dropped to zero.
    """
    g = f.grid
    N = g.N
    r = g.r
    if 1.0 / g.r_max >= g.r_max:
        raise InvalidParameter("grid does not overlap the transformed domain")
    vals = r ** (-(N - 2.0)) * f(1.0 / r)      # f is zero past r_max
    return RadialField.from_values(g, vals, origin=0.0)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def _lsq_fit(x: np.ndarray, y: np.ndarray):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = coef
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


def tail_exponent_fit(f: RadialField, window: tuple) -> RateFit:
    """Least-squares slope of log u vs log r over a radial window."""
    r1, r2 = window
    if not 0 < r1 < r2 <= f.grid.r_max:
        raise InvalidParameter("window must sit inside (0, r_max]")
    if r2 / r1 < np.sqrt(10.0):
        raise InvalidParameter("window narrower than half a decade")
    mask = (f.grid.r >= r1) & (f.grid.r <= r2)
    r = f.grid.r[mask]
    u = f.values[mask]
    if np.any(u <= 0):
        raise InvalidParameter("field must be positive on the fit window")
    return RateFit(*_lsq_fit(np.log(r), np.log(u)))


def rate_fit(couplings, values, min_span_decades: float = 1.5) -> RateFit:
    """Fit log(value) against log(coupling); a logarithmic regime divides its
    values by the log factor first and is fitted the same way."""
    c = np.asarray(couplings, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(c) < 4:
        raise InvalidParameter("rate fit needs at least 4 samples")
    if not np.all(np.isfinite(c) & (c > 0)):
        raise InvalidParameter("couplings must be finite and positive")
    order = np.argsort(c)
    c, v = c[order], v[order]
    span = np.log10(c[-1] / c[0])
    if span < min_span_decades:
        raise InvalidParameter(f"span {span:.2f} decades < required {min_span_decades}")
    if not np.all(np.isfinite(v) & (v > 0)):
        raise InvalidParameter("values must be finite and positive for a log fit")
    return RateFit(*_lsq_fit(np.log(c), np.log(v)))

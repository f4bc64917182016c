"""Rescaling families, concentration-scale extraction, Kelvin transform,
and log-log rate fits against the predicted asymptotic exponents."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .functional import Parts
from .grid import RadialField, RadialGrid, integrate, kinetic_energy, make_grid
from .profiles import talenti_peak
from .riesz import interaction_energy

__all__ = ["RescaleRecord", "RateFit", "rescale_family", "concentration_scale",
           "kelvin", "tail_exponent_fit", "rate_fit"]

# map tags, with u_new(x) = amp * u(arg * x):
#   coupling-to-frequency-hls     amp = c^(1/(q-2)),      arg = c^((2*-2)/(2(q-2)))
#   coupling-to-frequency-sobolev amp = c^((N-2)/(2 den)), arg = c^(1/den),
#                                 den = (N-2)(p-1) - alpha
#   amplitude-local               amp = c^(1/(q-2)),      arg = 1
#   amplitude-choquard            amp = c^(1/(2(p-1))),   arg = 1
#   bubble-normalized             amp = xi^((N-2)/2),     arg = xi (peak-matched)


@dataclass(frozen=True)
class RescaleRecord:
    coupling: float
    map_tag: str
    source: RadialField
    rescaled: RadialField
    scale: float               # xi (spatial factor of the applied map)
    amplitude: float
    ledger_before: Parts
    ledger_after: Parts
    identity_defects: dict
    mass_loss: float           # fraction of L2 mass pushed past r_max (0 when none)


def _ledger(f: RadialField, p: float, q: float, alpha: float) -> Parts:
    g = f.grid
    return Parts(kinetic=kinetic_energy(g, f.values),
                 mass=integrate(g, f.values ** 2),
                 riesz=interaction_energy(g, f, p, alpha),
                 power=integrate(g, np.abs(f.values) ** q))


def _map_exponents(tag: str, N: int, p: float, q: float, alpha: float):
    """(amplitude exponent, argument exponent) in the coupling for each map."""
    two_star = 2.0 * N / (N - 2)
    if tag == "coupling-to-frequency-hls":
        return 1.0 / (q - 2), (two_star - 2) / (2 * (q - 2))
    if tag == "coupling-to-frequency-sobolev":
        den = (N - 2) * (p - 1) - alpha
        return (N - 2) / (2 * den), 1.0 / den
    if tag == "amplitude-local":
        return 1.0 / (q - 2), 0.0
    if tag == "amplitude-choquard":
        return 1.0 / (2 * (p - 1)), 0.0
    raise InvalidParameter(f"unknown rescale map {tag!r}")


def rescale_family(f: RadialField, coupling: float, map_tag: str,
                   p: float, q: float, alpha: float,
                   target_grid: RadialGrid | None = None) -> RescaleRecord:
    """Apply one of the displayed changes of variables and audit the norms.

    ``bubble-normalized`` extracts xi from the peak (see
    `concentration_scale`) and applies w -> xi^((N-2)/2) w(xi .); the other
    tags use the exact coupling powers.  Identity defects compare the
    before/after ledgers against the closed scaling laws.
    """
    if coupling <= 0:
        raise InvalidParameter("coupling must be positive")
    g = f.grid
    N = g.N
    before = _ledger(f, p, q, alpha)
    if map_tag == "bubble-normalized":
        xi = concentration_scale(f)
        amp = xi ** ((N - 2) / 2.0)
        arg = xi
    else:
        ea, eb = _map_exponents(map_tag, N, p, q, alpha)
        amp = coupling ** ea
        arg = coupling ** eb
    if target_grid is None:
        target_grid = g if abs(arg - 1.0) < 1e-14 else make_grid(
            N, g.r_max / arg, g.n, g.grading)
    vals = amp * f(arg * target_grid.r)
    mass_loss = 0.0
    if arg * target_grid.r_max < g.r_max * (1 - 1e-12):
        # support truncated by the target window: measure what is lost
        lost_mask = g.r > arg * target_grid.r_max
        total = integrate(g, f.values ** 2)
        lost = integrate(g, np.where(lost_mask, f.values ** 2, 0.0))
        mass_loss = lost / total if total > 0 else 0.0
    out = RadialField.from_values(target_grid, vals, origin=amp * f.origin)
    after = _ledger(out, p, q, alpha)
    # exact scaling laws of the four integrals under u -> amp u(arg .)
    pred = Parts(kinetic=amp ** 2 * arg ** (2 - N) * before.kinetic,
                 mass=amp ** 2 * arg ** (-N) * before.mass,
                 riesz=amp ** (2 * p) * arg ** (-N - alpha) * before.riesz,
                 power=amp ** q * arg ** (-N) * before.power)
    defects = {}
    for name in ("kinetic", "mass", "riesz", "power"):
        a = getattr(after, name)
        b = getattr(pred, name)
        defects[name] = abs(a - b) / max(abs(b), 1e-300)
    return RescaleRecord(coupling=coupling, map_tag=map_tag, source=f, rescaled=out,
                         scale=float(arg), amplitude=float(amp),
                         ledger_before=before, ledger_after=after,
                         identity_defects=defects, mass_loss=float(mass_loss))


def concentration_scale(f: RadialField) -> float:
    """xi = (W_1(0)/w(0))^(2/(N-2)): the dilation matching the peak to the bubble."""
    N = f.grid.N
    peak = f.origin
    if peak <= 0:
        raise InvalidParameter("concentration scale undefined for vanishing peak")
    return float((talenti_peak(N) / peak) ** (2.0 / (N - 2)))


def kelvin(f: RadialField, target_grid: RadialGrid | None = None) -> RadialField:
    """Kelvin transform K[u](r) = r^-(N-2) u(1/r) by interpolation.

    The target grid must overlap [1/r_max, ...); values needing u beyond
    r_max (i.e. r < 1/r_max) are dropped to zero.
    """
    g = f.grid
    N = g.N
    if target_grid is None:
        target_grid = g
    r = target_grid.r
    if 1.0 / g.r_max >= target_grid.r_max:
        raise InvalidParameter("target grid does not overlap the transformed domain")
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / r
    vals = np.where(inv <= g.r_max, r ** (-(N - 2.0)) * f(np.minimum(inv, g.r_max)), 0.0)
    vals[inv > g.r_max] = 0.0
    return RadialField.from_values(target_grid, vals, origin=0.0)


@dataclass(frozen=True)
class RateFit:
    abscissa: np.ndarray
    ordinate: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    window: tuple
    expected: float | None = None
    slope_stderr: float = np.nan
    refit: "RateFit | None" = None
    log_abscissa: bool = True


def _lsq_fit(x: np.ndarray, y: np.ndarray):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = coef
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = max(len(x) - 2, 1)
    sxx = float(np.sum((x - np.mean(x)) ** 2))
    stderr = np.sqrt(ss_res / dof / sxx) if sxx > 0 else np.nan
    return slope, intercept, r2, stderr


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
    slope, intercept, r2_, stderr = _lsq_fit(np.log(r), np.log(u))
    return RateFit(abscissa=r, ordinate=u, slope=slope, intercept=intercept,
                   r_squared=r2_, window=window, slope_stderr=stderr)


def rate_fit(couplings, values, expected: float | None = None,
             log_abscissa: bool = True, min_span_decades: float = 1.5,
             refit_r2: float = 0.98) -> RateFit:
    """Fit log(value) against log(coupling) (or ln coupling for log regimes).

    When R^2 < `refit_r2` the two extreme samples are dropped and the fit is
    redone on the shrunken window; both fits are kept in the record.
    """
    c = np.asarray(couplings, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(c) < 4:
        raise InvalidParameter("rate fit needs at least 4 samples")
    if np.any(c <= 0):
        raise InvalidParameter("couplings must be positive")
    order = np.argsort(c)
    c, v = c[order], v[order]
    span = np.log10(c[-1] / c[0])
    if log_abscissa and span < min_span_decades:
        raise InvalidParameter(f"span {span:.2f} decades < required {min_span_decades}")
    x = np.log(c) if log_abscissa else c
    if np.any(v <= 0):
        raise InvalidParameter("values must be positive for a log fit")
    y = np.log(v)
    slope, intercept, r2, stderr = _lsq_fit(x, y)
    fit = RateFit(abscissa=c, ordinate=v, slope=slope, intercept=intercept,
                  r_squared=r2, window=(float(c[0]), float(c[-1])),
                  expected=expected, slope_stderr=stderr, log_abscissa=log_abscissa)
    if r2 < refit_r2 and len(c) >= 6:
        inner = rate_fit(c[1:-1], v[1:-1], expected=expected,
                         log_abscissa=log_abscissa, min_span_decades=0.0,
                         refit_r2=0.0)
        fit = RateFit(abscissa=c, ordinate=v, slope=slope, intercept=intercept,
                      r_squared=r2, window=fit.window, expected=expected,
                      slope_stderr=stderr, refit=inner, log_abscissa=log_abscissa)
    return fit

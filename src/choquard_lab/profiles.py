"""Closed-form radial profiles: the Sobolev extremal bubble, HLS extremizer,
Gaussian seeds, the fixed cutoff used by the bubble family and the cutoff
bubble itself."""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
from .grid import RadialField, RadialGrid

__all__ = ["talenti_peak", "talenti_scale", "talenti", "hls_extremizer", "gaussian",
           "smoothstep_cutoff", "cutoff_bubble"]


def talenti_peak(N: int) -> float:
    """W_1(0) = [N(N-2)]^((N-2)/4); InvalidParameter from N = 145 on, where
    its square, the scale of the bubble's mass, overflows a double."""
    if (N - 2.0) / 2.0 * np.log(N * (N - 2.0)) > np.log(np.finfo(float).max):
        raise InvalidParameter(f"the bubble's peak overflows a double at N={N}")
    return (N * (N - 2.0)) ** ((N - 2.0) / 4.0)


def talenti_scale(N: int, peak: float) -> float:
    """xi = (W_1(0)/peak)^(2/(N-2)): the bubble scale whose peak is `peak`."""
    return (talenti_peak(N) / peak) ** (2.0 / (N - 2))


def talenti(grid: RadialGrid, eps: float = 1.0) -> RadialField:
    """Sobolev extremal profile at concentration scale eps, with exact derivative.

    W_eps(r) = eps^(-(N-2)/2) W_1(r/eps),  W_1(r) = [N(N-2)]^((N-2)/4) (1+r^2)^(-(N-2)/2).
    """
    N = grid.N
    c = talenti_peak(N) * eps ** (-(N - 2) / 2.0)
    s = grid.r / eps

    def w(sv):
        return c * (1.0 + sv ** 2) ** (-(N - 2) / 2.0)

    vals = w(s)
    dvals = c * (-(N - 2.0)) * s * (1.0 + s ** 2) ** (-(N - 2) / 2.0 - 1) / eps
    return RadialField.from_values(grid, vals, deriv=dvals, origin=float(c))


def hls_extremizer(grid: RadialGrid, alpha: float) -> RadialField:
    """(1 + r^2)^(-(N+alpha)/2): saturates the diagonal HLS inequality."""
    N = grid.N
    e = -(N + alpha) / 2.0
    vals = (1.0 + grid.r ** 2) ** e
    dvals = e * 2.0 * grid.r * (1.0 + grid.r ** 2) ** (e - 1)
    return RadialField.from_values(grid, vals, deriv=dvals, origin=1.0)


def gaussian(grid: RadialGrid, width: float = 1.0) -> RadialField:
    vals = np.exp(-(grid.r / width) ** 2)
    dvals = vals * (-2.0 * grid.r / width ** 2)
    return RadialField.from_values(grid, vals, deriv=dvals, origin=1.0)


def smoothstep_cutoff(x):
    """Quintic cutoff: 1 on x<=1, 0 on x>=2, C^2 monotone bridge in between.

    Pinned library-wide so every O(.) constant in bubble sweeps is reproducible.
    """
    x = np.asarray(x, dtype=float)
    t = np.clip(x - 1.0, 0.0, 1.0)
    s = 6 * t ** 5 - 15 * t ** 4 + 10 * t ** 3
    return 1.0 - s


def cutoff_bubble(grid: RadialGrid, eps: float, R: float) -> RadialField:
    """W_eps(r) * smoothstep_cutoff(r/R): the bubble at scale eps, equal to
    W_eps on r <= R and zero from r = 2R on."""
    core = talenti(grid, eps)
    vals = core.values * smoothstep_cutoff(grid.r / R)
    return RadialField.from_values(grid, vals, origin=core.origin)

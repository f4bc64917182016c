"""Radial discretization of R^N: graded grids, quadrature, interpolation,
kinetic forms.

All integrals over R^N of radial integrands are reduced to
``sphere_area * sum_i w_i f(r_i)`` where the weights ``w_i`` absorb the
volume factor r^(N-1) and are exact for piecewise-quadratic interpolants
on each quadrature panel.  The panels are arrays (`Panels`), and every
weight, quadratic or fallback, and the P1 stiffness come from one routine,
`_moments`, that integrates (r - c)^k r^(N-1) about a node c of the
interval without cancellation: each is exact to roundoff.  The domain is
truncated at ``r_max`` with a homogeneous Dirichlet condition; solutions
of interest decay exponentially or like r^-(N-2).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from math import comb, gamma, pi
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import IncompatibleGrid, InvalidConfiguration

__all__ = [
    "RadialGrid",
    "RadialField",
    "make_grid",
    "integrate",
    "derivative_values",
    "gradient_seminorm",
    "kinetic_energy",
]


def sphere_surface(N: int) -> float:
    """Surface measure of the unit (N-1)-sphere in R^N."""
    return 2.0 * pi ** (N / 2) / gamma(N / 2)


# the other two nodes of the Lagrange basis polynomials l_0, l_1, l_2 of a panel
_I, _J = np.array([1, 0, 0]), np.array([2, 2, 1])


class Panels(NamedTuple):
    """Quadrature panels as arrays: panel k integrates the quadratic through
    the nodes r[nodes[k]] (P, 3) over [a[k], b[k]]."""

    a: np.ndarray
    b: np.ndarray
    nodes: np.ndarray


def _moments(a, b, c, N: int, K: int) -> np.ndarray:
    """int_a^b (r - c)^k r^(N-1) dr for k < K, stacked on a new last axis.

    With s = r - c the integrand is sum_m C(N-1, m) c^(N-1-m) s^(k+m), so the
    moment is sum_m C(N-1, m) c^(N-1-m) (s_b^(k+m+1) - s_a^(k+m+1)) / (k+m+1):
    for c in [a, b] this does not cancel as b^(k+N) - a^(k+N) does on a
    narrow panel far from the origin.
    """
    c = np.asarray(c, dtype=float)[..., None]
    j = np.arange(1, K + N)
    # powers by repeated products: pow() of a negative base is slow
    sa, sb = (np.cumprod(np.broadcast_to(x[..., None] - c, c.shape[:-1] + j.shape), -1)
              for x in (a, b))
    S = np.lib.stride_tricks.sliding_window_view((sb - sa) / j, N, -1)
    coef = np.array([comb(N - 1, m) for m in range(N)]) * c ** np.arange(N - 1, -1, -1)
    return np.einsum("...km,...m->...k", S, coef)


def _panels(r: np.ndarray, N: int) -> tuple[Panels, np.ndarray]:
    """The panels of the nodes r and their positive weights (P, 3), the
    integrals of the panel's basis functions against r^(N-1).

    Panel 0 is the head cell [0, r_1], integrated by the one-point rule
    f(r_1) r_1^N / N (its measure is O(r_1^N)); node triples cover [r_1, r_max].
    With an even node count the leftover single interval [r_1, r_2] is placed
    at the origin side, where its measure is negligible, so the boundary
    panels stay node-centered.  The quadratic Lagrange rule takes its moments
    about the middle node; it is exact for polynomials up to degree 2, so
    sum(w) reproduces the ball volume to roundoff.  On strongly skewed panels
    it can turn a weight negative; there the product-trapezoid rule (linear
    in f) takes over.
    """
    n, lead = len(r), (len(r) - 1) % 2 + 1     # the head cell, and [r_1, r_2] for even n
    j = np.arange(lead - 1, n - 2, 2)
    a, b = np.concatenate(([0.0], r[:lead - 1], r[j])), np.concatenate((r[:lead], r[j + 2]))
    nodes = np.concatenate((np.tile(np.arange(3), (lead, 1)), j[:, None] + np.arange(3)))
    x = r[nodes]
    s = x - x[:, 1:2]
    si, sj = s[:, _I], s[:, _J]
    M = _moments(a, b, x[:, 1], N, 3)
    pw = (M[:, 2:] - (si + sj) * M[:, 1:2] + si * sj * M[:, :1]) / ((s - si) * (s - sj))
    pw[0] = (b[0] ** N / N, 0.0, 0.0)
    # the product trapezoid: hats 1 - (r - lo)/h and (r - lo)/h on [x_0, x_1]
    # and [x_1, x_2] cut at b, from M0 and M1 about lo
    neg = (pw < 0).any(axis=1)
    lo, hi = x[neg, :2], x[neg, 1:]
    M = _moments(lo, np.minimum(hi, b[neg, None]), lo, N, 2)
    right = M[..., 1] / (hi - lo)
    pw[neg] = 0.0
    pw[neg, :2] += M[..., 0] - right
    pw[neg, 1:] += right
    return Panels(a, b, nodes), pw


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Graded radial grid with quadrature weights for int f(r) r^(N-1) dr.

    Nodes are r_i = r_max (i/n)^grading, i = 1..n; the origin is a virtual
    node handled by even extension.  `panels` holds the quadrature panels
    as arrays and `panel_weights` their (P, 3) weights, which `w` sums per
    node; all are exact to roundoff.  `stiff_diag`/`stiff_off` hold the
    piecewise-linear kinetic form int u'^2 r^(N-1) dr (the origin cell is
    dropped; its contribution is O(r_1^(N+2)) for radially smooth fields).
    """

    N: int
    r: np.ndarray
    w: np.ndarray
    r_max: float
    n: int
    grading: float
    sphere_area: float
    panels: Panels
    panel_weights: np.ndarray    # (P, 3)
    stiff_diag: np.ndarray
    stiff_off: np.ndarray

    @property
    def key(self):
        """Stable identity for kernel-table caching and manifests."""
        return (self.N, self.n, float(self.r_max), float(self.grading))

    @property
    def weights_full(self) -> np.ndarray:
        """Quadrature weights including the spherical surface factor."""
        return self.sphere_area * self.w


def make_grid(N: int, r_max: float, n: int, grading: float = 2.0) -> RadialGrid:
    """Build a graded radial grid; cluster near the origin for grading > 1."""
    if not isinstance(N, Integral) or N < 3:
        raise InvalidConfiguration(f"dimension N={N!r} must be an integer >= 3")
    if not isinstance(n, Integral) or n < 16:
        raise InvalidConfiguration(f"node count n={n!r} must be an integer >= 16")
    if not np.isfinite(r_max) or r_max <= 0:
        raise InvalidConfiguration(f"truncation radius r_max={r_max} must be positive")
    if not np.isfinite(grading) or grading < 1:
        raise InvalidConfiguration(f"grading={grading} must be finite and >= 1")
    i = np.arange(1, n + 1, dtype=float)
    r = r_max * (i / n) ** grading
    panels, pw = _panels(r, N)
    # P1 stiffness over [r_1, r_max] (no surface factor)
    m = _moments(r[:-1], r[1:], r[:-1], N, 1)[:, 0] / np.diff(r) ** 2
    diag = np.zeros(n)
    diag[:-1] += m
    diag[1:] += m
    return RadialGrid(N=N, r=r, w=np.bincount(panels.nodes.ravel(), pw.ravel(), n),
                      r_max=float(r_max), n=n, grading=float(grading),
                      sphere_area=sphere_surface(N), panels=panels, panel_weights=pw,
                      stiff_diag=diag, stiff_off=-m)


def _extrapolate_origin(r: np.ndarray, u: np.ndarray) -> float:
    """Even-quadratic extrapolation u(0) from the first two nodes (u'(0)=0)."""
    r1, r2 = r[0], r[1]
    return float((u[0] * r2 ** 2 - u[1] * r1 ** 2) / (r2 ** 2 - r1 ** 2))


@dataclass(frozen=True)
class RadialField:
    """Radial profile sampled on a grid; value at 0 by even extension.

    `deriv` optionally carries nodal values of u'(r) (e.g. from an ODE
    integrator or an analytic formula); integral evaluators prefer it over
    finite differences when present.
    """

    grid: RadialGrid
    values: np.ndarray
    origin: float
    deriv: np.ndarray | None = None

    @classmethod
    def from_values(cls, grid: RadialGrid, values, deriv=None, origin=None) -> "RadialField":
        values = np.asarray(values, dtype=float)
        if values.shape != grid.r.shape:
            raise IncompatibleGrid("value array does not match grid nodes")
        if not (np.all(np.isfinite(values)) and (origin is None or np.isfinite(origin))):
            raise InvalidConfiguration("field values and origin must be finite")
        if origin is None:
            origin = _extrapolate_origin(grid.r, values)
        d = None if deriv is None else np.asarray(deriv, dtype=float)
        return cls(grid=grid, values=values, origin=float(origin), deriv=d)

    def __call__(self, r_targets) -> np.ndarray:
        """Monotone cubic (PCHIP) through (0, origin) and the nodes; exact at
        the nodes, zero beyond r_max.

        Fritsch-Butland slopes: the weighted harmonic mean of neighbouring
        secants inside, zero at a sign change or flat secant, and the
        one-sided three-point rule with its shape fixes at both ends.  The
        cubic is summed as scipy's `PchipInterpolator` sums it, so the two
        agree bit for bit, except at r_max: there the last cubic's right
        end misses the node value by roundoff, and the node value is
        returned.  Values below 1e-200 of the peak are flushed to zero: the
        harmonic mean of their secants overflows.
        """
        t = np.asarray(r_targets, dtype=float)
        x = np.concatenate(([0.0], self.grid.r))
        y = np.concatenate(([self.origin], self.values))
        y[np.abs(y) < 1e-200 * np.max(np.abs(y))] = 0.0
        h = np.diff(x)
        m = np.diff(y) / h
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        d = np.concatenate(([_pchip_end(h[0], h[1], m[0], m[1])], np.where(flat, 0.0, inner),
                            [_pchip_end(h[-1], h[-2], m[-1], m[-2])]))
        k = (d[:-1] + d[1:] - 2 * m) / h
        c1, c0 = (m - d[:-1]) / h - k, k / h
        inside = (t >= 0.0) & (t <= x[-1])
        t = np.where(inside, t, 0.0)
        i = np.minimum(np.searchsorted(x, t, side="right") - 1, len(h) - 1)
        s = t - x[i]
        out = y[i] + d[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)
        return np.where(inside, np.where(t == x[-1], y[-1], out), 0.0)

    def rescaled(self, amp: float, arg: float) -> "RadialField":
        """amp * u(arg * r) on make_grid(N, r_max / arg, n, grading), whose
        nodes are these divided by arg: values and origin times amp, a stored
        derivative times amp * arg, nothing interpolated.  At |arg - 1| < 1e-14
        the grid, and so its cached kernel table, is kept."""
        if not 0 < arg < np.inf:
            raise InvalidConfiguration(f"dilation arg={arg} must be positive and finite")
        g = self.grid
        grid = g if abs(arg - 1.0) < 1e-14 else make_grid(g.N, g.r_max / arg, g.n, g.grading)
        deriv = None if self.deriv is None else amp * arg * self.deriv
        return RadialField.from_values(grid, amp * self.values, deriv=deriv,
                                       origin=amp * self.origin)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("r,u\n")
        buf.write(f"0.0,{float(self.origin)!r}\n")
        for r, u in zip(self.grid.r, self.values):
            buf.write(f"{float(r)!r},{float(u)!r}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, grid: RadialGrid, text: str) -> "RadialField":
        """The field `to_csv` wrote on `grid`, whose nodes repr round-trips exactly."""
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        try:
            r, u = np.array([(float(a), float(b)) for a, b in rows]).T
        except ValueError as e:
            raise InvalidConfiguration(f"malformed field CSV: {e}") from None
        if len(r) != grid.n + 1 or not np.array_equal(r[1:], grid.r):
            raise IncompatibleGrid("CSV nodes do not match grid")
        return cls.from_values(grid, u[1:], origin=u[0])


def _pchip_end(h0, h1, m0, m1) -> float:
    """PCHIP end slope: the one-sided three-point rule, zeroed when it turns
    against the end secant and capped at 3 m0 when the secants change sign."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


def _check_same_grid(grid: RadialGrid, f: RadialField):
    if f.grid is not grid and f.grid.key != grid.key:
        raise IncompatibleGrid("field lives on a different grid")


def integrate(grid: RadialGrid, f) -> float:
    """Full-space integral of a radial function: sphere_area * sum w_i f_i."""
    if isinstance(f, RadialField):
        _check_same_grid(grid, f)
        vals = f.values
    else:
        vals = np.asarray(f, dtype=float)
        if vals.shape != grid.r.shape:
            raise IncompatibleGrid("value array does not match grid nodes")
    return float(grid.sphere_area * np.dot(grid.w, vals))


def derivative_values(f: RadialField) -> np.ndarray:
    """Nodal u'(r): stored derivative if present, else second-order differences.

    At r[:-1] the non-uniform central difference, exact for quadratics, with
    the origin value as the left neighbor of r[0] (even extension, u'(0)=0);
    at the last node a one-sided difference.
    """
    if f.deriv is not None:
        return f.deriv
    r, u = f.grid.r, f.values
    rp = np.concatenate(([0.0], r))
    up = np.concatenate(([f.origin], u))
    h0 = rp[1:-1] - rp[:-2]
    h1 = rp[2:] - rp[1:-1]
    d = np.zeros(len(r))
    d[:-1] = (-h1 / (h0 * (h0 + h1)) * up[:-2]
              + (h1 - h0) / (h0 * h1) * up[1:-1]
              + h0 / (h1 * (h0 + h1)) * up[2:])
    d[-1] = (u[-1] - u[-2]) / (r[-1] - r[-2])
    return d


def gradient_seminorm(f: RadialField) -> float:
    """int |grad u|^2 from nodal derivatives with the grid quadrature."""
    d = derivative_values(f)
    return float(f.grid.sphere_area * np.dot(f.grid.w, d * d))


def kinetic_energy(grid: RadialGrid, values: np.ndarray) -> float:
    """int |grad u|^2 as the piecewise-linear (stiffness) quadratic form.

    Variationally consistent with the solver's discrete operator; agrees
    with `gradient_seminorm` to O(h^2) on smooth fields.
    """
    Au = apply_stiffness(grid.stiff_diag, grid.stiff_off, values)
    return float(grid.sphere_area * np.dot(values, Au))


def apply_stiffness(diag: np.ndarray, off: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal product: diagonal `diag`, off-diagonal `off`."""
    out = diag * values
    out[:-1] += off * values[1:]
    out[1:] += off * values[:-1]
    return out

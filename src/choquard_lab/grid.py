"""Radial discretization of R^N: graded grids, quadrature, interpolation,
kinetic forms.

All integrals over R^N of radial integrands are reduced to
``sphere_area * sum_i w_i f(r_i)`` where the weights ``w_i`` absorb the
volume factor r^(N-1) and are exact for piecewise-quadratic interpolants
on each quadrature panel.  The domain is truncated at ``r_max`` with a
homogeneous Dirichlet condition; solutions of interest decay exponentially
or like r^-(N-2).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from math import comb, gamma, pi

import numpy as np
from scipy.interpolate import PchipInterpolator

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


def _panel_list(r: np.ndarray):
    """Quadrature panels: head segment [0, r_1] plus triples covering [r_1, r_max].

    Each panel carries the interval and the indices of the three nodes whose
    quadratic interpolant is integrated over it.  With an even node count the
    leftover single interval is placed at the origin side, where its measure
    is negligible, so the boundary panels stay node-centered.
    """
    n = len(r)
    panels = [(0.0, r[0], (0, 1, 2))]
    j = 0
    if (n - 1) % 2 == 1:
        panels.append((r[0], r[1], (0, 1, 2)))
        j = 1
    while j + 2 <= n - 1:
        panels.append((r[j], r[j + 2], (j, j + 1, j + 2)))
        j += 2
    return panels


def _moment_weights(a: float, b: float, nodes, N: int) -> np.ndarray:
    """Weights integrating the quadratic through `nodes` against r^(N-1) on [a,b].

    Exact for polynomials up to degree 2, which also makes sum(w) reproduce
    the ball volume to machine precision.
    """
    x0, x1, x2 = nodes
    c = x1  # center for conditioning
    M = np.zeros(3)
    for k in range(3):
        acc = 0.0
        for j in range(k + 1):
            acc += comb(k, j) * (-c) ** (k - j) * (b ** (j + N) - a ** (j + N)) / (j + N)
        M[k] = acc
    V = np.array([[(x - c) ** k for x in (x0, x1, x2)] for k in range(3)])
    return np.linalg.solve(V, M)


def _panel_weights(a: float, b: float, nodes, N: int) -> np.ndarray:
    """Positive panel weights: quadratic rule, degraded where it loses positivity.

    On strongly skewed panels the interpolatory quadratic rule can turn a
    weight slightly negative; there the product-trapezoid rule (linear in f,
    exact moments of r^(N-1)) takes over, and the head cell [0, r_1] uses the
    one-point rule f(r_1) r_1^N / N (its measure is O(r_1^N)).
    """
    x0, x1, x2 = nodes
    if a == 0.0:
        return np.array([b ** N / N, 0.0, 0.0])
    w = _moment_weights(a, b, nodes, N)
    if np.all(w >= 0):
        return w
    out = np.zeros(3)
    for (lo, hi, jl, jr) in ((x0, x1, 0, 1), (x1, x2, 1, 2)):
        lo_c, hi_c = max(lo, a), min(hi, b)
        if hi_c <= lo_c:
            continue
        m0 = (hi_c ** N - lo_c ** N) / N
        m1 = (hi_c ** (N + 1) - lo_c ** (N + 1)) / (N + 1)
        h = hi - lo
        out[jl] += (hi * m0 - m1) / h
        out[jr] += (m1 - lo * m0) / h
    return out


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Graded radial grid with quadrature weights for int f(r) r^(N-1) dr.

    Nodes are r_i = r_max (i/n)^grading, i = 1..n; the origin is a virtual
    node handled by even extension.  `stiff_diag`/`stiff_off` hold the
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
    panels: tuple
    panel_weights: np.ndarray    # (panels, 3)
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
    if N < 3:
        raise InvalidConfiguration(f"dimension N={N} must be >= 3")
    if n < 16:
        raise InvalidConfiguration(f"node count n={n} must be >= 16")
    if not np.isfinite(r_max) or r_max <= 0:
        raise InvalidConfiguration(f"truncation radius r_max={r_max} must be positive")
    if grading < 1:
        raise InvalidConfiguration(f"grading={grading} must be >= 1")
    i = np.arange(1, n + 1, dtype=float)
    r = r_max * (i / n) ** grading
    panels = _panel_list(r)
    w = np.zeros(n)
    pws = []
    for a, b, idx in panels:
        pw = _panel_weights(a, b, tuple(r[list(idx)]), N)
        pws.append(pw)
        for m, j in enumerate(idx):
            w[j] += pw[m]
    # P1 stiffness over [r_1, r_max] (no surface factor)
    h = np.diff(r)
    m = (r[1:] ** N - r[:-1] ** N) / (N * h ** 2)
    diag = np.zeros(n)
    off = np.zeros(n - 1)
    diag[:-1] += m
    diag[1:] += m
    off -= m
    return RadialGrid(N=N, r=r, w=w, r_max=float(r_max), n=n, grading=float(grading),
                      sphere_area=sphere_surface(N), panels=tuple(panels),
                      panel_weights=np.array(pws), stiff_diag=diag, stiff_off=off)


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
        if not np.all(np.isfinite(values)):
            raise InvalidConfiguration("field values must be finite")
        if origin is None:
            origin = _extrapolate_origin(grid.r, values)
        d = None if deriv is None else np.asarray(deriv, dtype=float)
        return cls(grid=grid, values=values, origin=float(origin), deriv=d)

    def interpolator(self) -> PchipInterpolator:
        """Monotone cubic through (0, origin) and the nodes.

        Values below 1e-200 of the peak are flushed to zero: PCHIP's harmonic
        mean of neighbouring slopes overflows on them.
        """
        rr = np.concatenate(([0.0], self.grid.r))
        uu = np.concatenate(([self.origin], self.values))
        uu[np.abs(uu) < 1e-200 * np.max(np.abs(uu))] = 0.0
        return PchipInterpolator(rr, uu, extrapolate=False)

    def __call__(self, r_targets) -> np.ndarray:
        """Interpolate; exact at the nodes, zero beyond r_max."""
        r_targets = np.asarray(r_targets, dtype=float)
        out = self.interpolator()(r_targets)
        return np.nan_to_num(out, nan=0.0)

    def with_values(self, values, deriv=None) -> "RadialField":
        return RadialField.from_values(self.grid, values, deriv=deriv)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("r,u\n")
        buf.write(f"0.0,{float(self.origin)!r}\n")
        for r, u in zip(self.grid.r, self.values):
            buf.write(f"{float(r)!r},{float(u)!r}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, grid: RadialGrid, text: str) -> "RadialField":
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        r = np.array([float(a) for a, _ in rows])
        u = np.array([float(b) for _, b in rows])
        if len(r) != grid.n + 1 or not np.allclose(r[1:], grid.r):
            raise IncompatibleGrid("CSV nodes do not match grid")
        return cls.from_values(grid, u[1:], origin=u[0])


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

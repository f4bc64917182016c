"""Riesz potential engine for radial fields.

The reduced radial kernel is the exact angular average of
A_alpha(N) |x-y|^(alpha-N) over a sphere, evaluated in closed form through
a Gauss hypergeometric function.  A per-(grid, alpha) table turns the
convolution into a dense matrix-vector product; panels near the diagonal,
where the kernel has a kink (alpha = 2), a logarithmic singularity
(alpha = 1) or an integrable algebraic one (alpha < 1), are assembled by
product integration on geometrically refined sub-panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import hyp2f1

from .errors import InvalidParameter
from .grid import RadialField, RadialGrid, _check_same_grid, sphere_surface

__all__ = ["kernel_value", "RieszKernelTable", "kernel_table", "convolve",
           "interaction_energy", "potential_at"]

_GL8 = np.polynomial.legendre.leggauss(8)


def riesz_normalization(N: int, alpha: float) -> float:
    """A_alpha(N) = Gamma((N-alpha)/2) / (Gamma(alpha/2) pi^(N/2) 2^alpha)."""
    if not 0 < alpha < N:
        raise InvalidParameter(f"alpha={alpha} outside (0, N={N})")
    return gamma((N - alpha) / 2) / (gamma(alpha / 2) * pi ** (N / 2) * 2 ** alpha)


def kernel_value(N: int, alpha: float, r, s):
    """Reduced radial kernel K(r, s) with (I_alpha * g)(r) = int K(r,s) g(s) s^(N-1) ds.

    Exact angular average of A_alpha(N)|x-y|^(alpha-N) over the sphere |y| = s:
        K = A_alpha |S^(N-2)| B((N-1)/2, 1/2) max(r,s)^(alpha-N)
            * 2F1((N-alpha)/2, 1-alpha/2; N/2; (min/max)^2).
    Diverges on the diagonal for alpha <= 1; the quadrature rows never
    sample it there (product integration takes over).
    """
    pref = (riesz_normalization(N, alpha) * sphere_surface(N - 1)
            * beta_fn((N - 1) / 2.0, 0.5))
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    hi = np.maximum(r, s)
    lo = np.minimum(r, s)
    z2 = np.where(hi > 0, (lo / np.where(hi > 0, hi, 1.0)) ** 2, 0.0)
    if alpha == 2.0:
        F = np.ones_like(z2)
    else:
        F = hyp2f1((N - alpha) / 2.0, 1.0 - alpha / 2.0, N / 2.0, z2)
    return pref * hi ** (alpha - N) * F


def _refined_pieces(a: float, b: float, sing: float, depth: int = 14, ratio: float = 0.25):
    """Sub-intervals of [a, b] geometrically graded toward the endpoint `sing`.

    Grading stops before a sub-piece gets shorter than 1e-11 |sing|: closer
    to a nonzero singular point the kernel's hypergeometric factor
    overflows (z rounds to 1), and the rows would turn into inf - inf.
    """
    L = b - a
    ks = [k for k in range(1, depth) if L * ratio ** k >= 1e-11 * abs(sing)]
    if sing <= a:
        pts = [a] + [a + L * ratio ** k for k in reversed(ks)] + [b]
    else:
        pts = [a] + [b - L * ratio ** k for k in ks] + [b]
    return [(lo, hi) for lo, hi in zip(pts[:-1], pts[1:]) if hi > lo]


def _panel_product_row(N: int, alpha: float, t: float, a: float, b: float, nodes):
    """int_a^b K(t, s) l_m(s) s^(N-1) ds for the quadratic Lagrange basis l_m.

    Split at s = t when it falls inside, refining geometrically toward the
    singular point; handles the |r-s|^(alpha-1)-type local behavior.
    """
    if a < t < b:
        pieces = _refined_pieces(a, t, t) + _refined_pieces(t, b, t)
    elif t <= a:
        pieces = _refined_pieces(a, b, a)
    else:
        pieces = _refined_pieces(a, b, b)
    xs = []
    ws = []
    for lo, hi in pieces:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        xs.append(mid + half * _GL8[0])
        ws.append(half * _GL8[1])
    xs = np.concatenate(xs)
    ws = np.concatenate(ws)
    K = kernel_value(N, alpha, t, xs)
    x0, x1, x2 = nodes
    l0 = (xs - x1) * (xs - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (xs - x0) * (xs - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (xs - x0) * (xs - x1) / ((x2 - x0) * (x2 - x1))
    base = K * xs ** (N - 1) * ws
    return np.array([np.dot(base, l0), np.dot(base, l1), np.dot(base, l2)])


@dataclass(frozen=True)
class RieszKernelTable:
    """Cached discrete convolution for one (grid, alpha).

    `M` maps nodal values of g to nodal values of I_alpha * g; `G` is the
    symmetrized bilinear form so that int (I_alpha*f) g = f^T G g exactly
    symmetric; `origin_row` evaluates the potential at r = 0.
    """

    grid: RadialGrid
    alpha: float
    M: np.ndarray
    G: np.ndarray
    origin_row: np.ndarray

    def convolve_values(self, gvals: np.ndarray) -> np.ndarray:
        """Pointwise potential via the product-integration rows.

        (The bilinear form goes through `G`, the symmetrized pairing; the two
        agree to quadrature accuracy, but dividing G by the tiny origin-side
        weights would amplify the symmetrization residue pointwise.)
        """
        return self.M @ gvals

    def origin_value(self, gvals: np.ndarray) -> float:
        return float(np.dot(self.origin_row, gvals))

    def bilinear(self, fvals: np.ndarray, gvals: np.ndarray) -> float:
        return float(fvals @ (self.G @ gvals))


def _near_mask(grid: RadialGrid, targets) -> np.ndarray:
    """near[k, i]: panel i lies within one panel-width of targets[k]; the
    head segment counts when the target is at most r[2]."""
    starts = np.array([p[0] for p in grid.panels])
    ends = np.array([p[1] for p in grid.panels])
    width = ends - starts
    t = np.asarray(targets, dtype=float)[:, None]
    near = (starts - width <= t) & (t <= ends + width)
    near[:, 0] = t[:, 0] <= grid.r[2]
    return near


def _correct_near(grid: RadialGrid, alpha: float, t: float, row, far, panels):
    """Redo `panels` of a quadrature row by product integration at target t.

    `row` (changed in place) holds the kernel sampled at the nodes times the
    weights, and far[j] the kernel value it sampled at node j; on each panel
    the sampled contribution is swapped for the exact one.
    """
    r = grid.r
    for pi in panels:
        a, b, idx = grid.panels[pi]
        cor = _panel_product_row(grid.N, alpha, t, a, b, tuple(r[list(idx)]))
        old = grid.panel_weights[pi]
        for m, j in enumerate(idx):
            row[j] += cor[m] - far[j] * old[m]


def _rows(grid: RadialGrid, alpha: float, targets) -> np.ndarray:
    """Quadrature rows: rows[k] @ g.values is (I_alpha * g)(targets[k]).

    The kernel is sampled at the nodes, except at a node that coincides with
    the target (relative tolerance only: graded grids put distinct nodes
    closer than any absolute one), and the panels near each target are redone
    by product integration.
    """
    t = np.asarray(targets, dtype=float)
    far = kernel_value(grid.N, alpha, t[:, None], grid.r[None, :])
    far[np.isclose(grid.r[None, :], t[:, None], atol=0.0)] = 0.0
    rows = far * grid.w
    for k, near in enumerate(_near_mask(grid, t)):
        _correct_near(grid, alpha, t[k], rows[k], far[k], np.nonzero(near)[0])
    return rows


def _build_table(grid: RadialGrid, alpha: float) -> RieszKernelTable:
    M = _rows(grid, alpha, grid.r)
    WM = grid.weights_full[:, None] * M
    G = 0.5 * (WM + WM.T)
    return RieszKernelTable(grid=grid, alpha=alpha, M=M, G=G,
                            origin_row=_rows(grid, alpha, [0.0])[0])


_TABLE_CACHE: dict = {}


def kernel_table(grid: RadialGrid, alpha: float) -> RieszKernelTable:
    """Build or reuse the convolution table for (grid, alpha); equal grids
    share one table."""
    key = (grid.key, float(alpha))
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = _build_table(grid, alpha)
        _TABLE_CACHE[key] = tab
    return tab


def convolve(grid: RadialGrid, g: RadialField, alpha: float) -> RadialField:
    """I_alpha * g on the grid; positive whenever g is nontrivial and >= 0."""
    _check_same_grid(grid, g)
    tab = kernel_table(grid, alpha)
    vals = tab.convolve_values(g.values)
    return RadialField(grid=grid, values=vals, origin=tab.origin_value(g.values),
                       deriv=None, tail_floor=g.tail_floor)


def potential_at(grid: RadialGrid, g: RadialField, alpha: float, r_targets) -> np.ndarray:
    """Potential values at arbitrary radii (rows built on demand)."""
    return _rows(grid, alpha, np.atleast_1d(r_targets)) @ g.values


def interaction_energy(grid: RadialGrid, u: RadialField, p: float, alpha: float) -> float:
    """int (I_alpha * u^p) u^p  (nonnegative, bilinear-symmetric)."""
    _check_same_grid(grid, u)
    tab = kernel_table(grid, alpha)
    up = np.abs(u.values) ** p
    return tab.bilinear(up, up)

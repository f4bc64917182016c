"""Riesz potential engine for radial fields.

The reduced radial kernel is the exact angular average of
A_alpha(N) |x-y|^(alpha-N) over a sphere, evaluated in closed form through
a Gauss hypergeometric function F of z = (min/max)^2 (see `kernel_value`).
In N = 3, F is elementary at every alpha (Newton's shell theorem).  For
N >= 4 it has two branches, chosen from z and alpha alone: scipy's `hyp2f1`
for z <= 1/2 and whenever alpha - 1 is within 0.01 of an integer, and
otherwise the z -> 1-z connection formula (DLMF 15.8.4), two series in
w = 1 - z summed in numpy with w formed from max - min.  Near the diagonal,
where the quadrature samples most, neither suffers the rounding of z to 1,
and both are far cheaper than `hyp2f1` (the N = 3 form takes 50-75 ns a
point, `hyp2f1` 0.3 us at alpha = 1 and about 30 us at other alpha).

Quadrature rows (`_rows`), built on demand by `convolve` and
`potential_at`, sample the kernel at the nodes; near the diagonal, where it
has a kink (alpha = 2), a logarithmic singularity (alpha = 1) or an
integrable algebraic one (alpha < 1), panels are product-integrated on
geometrically refined sub-panels, one `kernel_value` call per block of
targets.  The solvers read only the pairing int (I_alpha * f) g = f^T G g:
a per-(grid, alpha) table holds G alone, the rows at the nodes weighted and
symmetrized in place, and every product with it is BLAS `dsymv` on one
triangle (`RieszKernelTable.apply`), nearly twice as fast as reading all of
it on one memory-bound core.  The _CACHED_TABLES most recently used tables
are kept, keyed by (grid, alpha) value.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import gamma, pi
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.special import beta as beta_fn
from scipy.special import hyp2f1

from .errors import InvalidParameter
from .grid import RadialField, RadialGrid, _check_same_grid, sphere_surface

__all__ = ["kernel_value", "RieszKernelTable", "kernel_table", "convolve",
           "interaction_energy", "potential_at"]

_GL8 = np.polynomial.legendre.leggauss(8)


def riesz_normalization(N: int, alpha: float) -> float:
    """A_alpha(N) = Gamma((N-alpha)/2) / (Gamma(alpha/2) pi^(N/2) 2^alpha).

    Gamma(alpha/2) ~ 2/alpha overflows a double near alpha = 1e-308, A_alpha
    does not: below alpha = 1e-300, 1/Gamma(alpha/2) = (alpha/2) / Gamma(1 + alpha/2).
    """
    if not 0 < alpha < N:
        raise InvalidParameter(f"alpha={alpha} outside (0, N={N})")
    if alpha < 1e-300:
        return alpha * (gamma((N - alpha) / 2)
                        / (2 * gamma(1 + alpha / 2) * pi ** (N / 2) * 2 ** alpha))
    return gamma((N - alpha) / 2) / (gamma(alpha / 2) * pi ** (N / 2) * 2 ** alpha)


# alpha - 1 closer than this to an integer keeps the direct branch: the
# connection coefficients have poles there
_INTEGER_GAP = 0.01
# series terms below this no longer change an O(1) sum in double precision
_SERIES_TOL = 2.0 ** -56


class _Connection(NamedTuple):
    """DLMF 15.8.4 for F(a, b; c; z) with eps = c - a - b = alpha - 1, w = 1 - z:

        F = A1 S1 + A2 w^eps S2,   S1 = F(a, b; 1-eps; w),  S2 = F(b+eps, a+eps; 1+eps; w),

    rearranged as F = A1 (S1 - S2) + S2 (B0 + A2 expm1(eps log w)) with
    B0 = A1 + A2.  Near an integer eps, A1 and A2 are large and of opposite
    sign, and so are the two terms of the textbook form; in this one every
    term stays of the size of F.  The coefficients of S1 - S2 are differenced
    with the factor eps taken out, and B0 is fixed by continuity with `hyp2f1`
    at z = 1/2 instead of being formed from the cancelling A1 + A2.

    coefs[k]: the k-th coefficients of S1 - S2 and of S2.
    """

    eps: float
    A1: float
    A2: float
    B0: float
    coefs: np.ndarray


class _KernelConstants(NamedTuple):
    """What `kernel_value` needs of (N, alpha) beyond the points.

    pref: A_alpha |S^(N-2)| B((N-1)/2, 1/2); (a, b, c): the parameters of F.
    `connection` is None where alpha keeps the direct branch, else the
    `_Connection` of (N, alpha).
    """

    pref: float
    a: float
    b: float
    c: float
    connection: _Connection | None


def _series_coefficients(a: float, b: float, eps: float) -> np.ndarray:
    """Rows k of [coefficient of S1 - S2, coefficient of S2] (see `_Connection`),
    up to where every term at w = 1/2 is below _SERIES_TOL and the next ones
    shrink by a factor of at most 3/4 per step."""
    d, c2 = 0.0, 1.0
    rows = [(d, c2)]
    k = 0
    while True:
        A, B, C = a + k, b + k, 1.0 + k
        r1 = A * B / ((C - eps) * C)
        r2 = (A + eps) * (B + eps) / ((C + eps) * C)
        # r1 - r2, with the factor eps taken out by hand
        dr = (eps * (2 * A * B - (A + B) * C + eps * (A + B - C) + eps * eps)
              / ((C - eps) * (C + eps) * C))
        d, c2 = d * r1 + c2 * dr, c2 * r2
        rows.append((d, c2))
        k += 1
        if (max(abs(d), abs(c2)) * 0.5 ** k < _SERIES_TOL
                and max(abs(r1), abs(r2)) <= 1.5):
            return np.array(rows)


def _sum_series(coefs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Both series of `coefs` at w, by Horner, to the last term that matters."""
    terms = np.abs(coefs).max(axis=1) * w.max(initial=0.0) ** np.arange(len(coefs))
    K = np.flatnonzero(terms >= _SERIES_TOL)[-1] + 1
    S = np.empty((2, w.size))
    S[:] = coefs[K - 1, :, None]
    for ck in coefs[:K - 1, :, None][::-1]:
        S *= w
        S += ck
    return S


@lru_cache(maxsize=64)
def _kernel_constants(N: int, alpha: float) -> _KernelConstants:
    """The constants of (N, alpha), computed once; InvalidParameter unless
    0 < alpha < N."""
    pref = (riesz_normalization(N, alpha) * sphere_surface(N - 1)
            * beta_fn((N - 1) / 2.0, 0.5))
    a, b, c = (N - alpha) / 2.0, 1.0 - alpha / 2.0, N / 2.0
    eps = alpha - 1.0
    if N == 3 or abs(eps - round(eps)) < _INTEGER_GAP:
        return _KernelConstants(pref, a, b, c, None)
    A1 = gamma(c) * gamma(eps) / (gamma(c - a) * gamma(c - b))
    A2 = gamma(c) * gamma(-eps) / (gamma(a) * gamma(b))
    coefs = _series_coefficients(a, b, eps)
    coefs.flags.writeable = False
    D, S2 = _sum_series(coefs, np.array([0.5]))[:, 0]
    B0 = (hyp2f1(a, b, c, 0.5) - A1 * D) / S2 - A2 * np.expm1(-eps * np.log(2.0))
    return _KernelConstants(pref, a, b, c, _Connection(eps, A1, A2, B0, coefs))


def _connection_branch(con: _Connection, hi, lo):
    """F((lo/hi)^2) through DLMF 15.8.4, for lo/hi > 1/sqrt(2)."""
    w = ((hi - lo) / hi) * ((hi + lo) / hi)      # hi - lo is exact here
    D, S2 = _sum_series(con.coefs, w)
    logw = np.log(w, out=np.zeros_like(w), where=w > 0)
    F = con.A1 * D + S2 * (con.B0 + con.A2 * np.expm1(con.eps * logw))
    # on the diagonal w^eps vanishes for alpha > 1, leaving Gauss's value A1,
    # and diverges for alpha < 1
    F[w == 0] = con.A1 if con.eps > 0 else np.inf
    return F


def _shell_average(eps: float, x, hi, lo):
    """F(x^2) at N = 3, x = lo/hi: a - b = 1/2 makes it elementary (DLMF §15.4),
    [(1+x)^eps - (1-x)^eps] / (2 eps x), artanh(x)/x at eps = 0.  Each power
    minus one is expm1(eps log(1 +- x)), with log(1 - x) from hi - lo where
    that is exact (lo > hi/2); +inf on the diagonal for eps <= 0, Gauss's
    2^(eps-1)/eps for eps > 0."""
    near = lo > 0.5 * hi
    d = (hi[near] - lo[near]) / hi[near]
    lm = np.log1p(-x, where=~near, out=np.empty_like(x))
    lm[near] = np.log(d, out=np.full_like(d, -np.inf), where=d > 0)
    lp = np.log1p(x)
    num = lp - lm if eps == 0.0 else (np.expm1(eps * lp) - np.expm1(eps * lm)) / eps
    return np.divide(num, 2.0 * x, out=np.ones_like(x), where=x > 0)


def kernel_value(N: int, alpha: float, r, s):
    """Reduced radial kernel K(r, s) with (I_alpha * g)(r) = int K(r,s) g(s) s^(N-1) ds.

    Exact angular average of A_alpha(N)|x-y|^(alpha-N) over the sphere |y| = s:
        K = A_alpha |S^(N-2)| B((N-1)/2, 1/2) max(r,s)^(alpha-N)
            * 2F1((N-alpha)/2, 1-alpha/2; N/2; (min/max)^2).
    With z = (min/max)^2 and (a, b, c) the parameters of 2F1, F is
      - 1 at alpha = 2;
      - at N = 3, the elementary `_shell_average`, within 1e-14 relative of
        the exact value at every alpha and up to the diagonal;
      - for N >= 4, scipy's `hyp2f1` at z <= 1/2, and at every z when
        alpha - 1 lies within 0.01 of an integer (alpha = 1, 3, ...);
      - otherwise, for z > 1/2, the z -> 1-z connection formula
        F = A1 F(a, b; 2-alpha; w) + A2 w^(alpha-1) F(c-a, c-b; alpha; w)
        (DLMF 15.8.4, see `_Connection`) with w = 1 - z formed from
        max - min, within 1e-13 relative of the exact value up to the diagonal.
    On the diagonal K is +inf for alpha <= 1 and finite for alpha > 1; the
    quadrature rows never use it there (product integration takes over).
    """
    kc = _kernel_constants(N, alpha)
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    hi = np.maximum(r, s)
    lo = np.minimum(r, s)
    x = np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 0.0)
    z2 = x ** 2
    if alpha == 2.0:
        F = np.ones_like(z2)
    elif N == 3:
        F = _shell_average(alpha - 1.0, x, hi, lo)
    elif kc.connection is None:
        F = hyp2f1(kc.a, kc.b, kc.c, z2)
    else:
        near = z2 > 0.5
        F = np.empty_like(z2)
        F[~near] = hyp2f1(kc.a, kc.b, kc.c, z2[~near])
        F[near] = _connection_branch(kc.connection, hi[near], lo[near])
    return kc.pref * hi ** (alpha - N) * F


# distances L / 4^k (k = 1..13) of the graded cut points from the singular end
_QUARTERS = 0.25 ** np.arange(1, 14)


def _refined_pieces(t, a, b):
    """Sub-intervals of the panels [a, b] graded toward the targets t, as
    (lo, hi), each (P, 29) and ascending: a panel is split at t when it falls
    inside, and each part is cut at distances L / 4^k (k = 1..13, L its
    length) from its end nearest t.  An unused cut leaves an empty piece.

    A cut closer than 1e-11 |end| to that end is unused: closer to a nonzero
    singular point the direct `hyp2f1` branch of `kernel_value` (N >= 4)
    overflows (z rounds to 1), and the rows would turn into inf - inf.  The
    other branches, which take 1 - z from max - min, need no such stop; it is kept
    because dropping it would change every table.  For the same reason a
    target within 1e-11 relative of a panel end counts as sitting at that
    end: splitting there would leave a piece whose Gauss points round onto t.
    """
    near = lambda end: np.abs(t - end) <= 1e-11 * np.abs(end)
    t = np.where(near(a), a, np.where(near(b), b, t))
    split = np.where((a < t) & (t < b), t, b)
    pts = []
    for lo, hi in ((a, split), (split, b)):
        left = (t <= lo)[:, None]
        d = (hi - lo)[:, None] * _QUARTERS
        d[d < 1e-11 * np.abs(np.where(left, lo[:, None], hi[:, None]))] = 0.0
        cuts = np.where(left, lo[:, None] + d[:, ::-1], hi[:, None] - d)
        pts += [lo[:, None], cuts, hi[:, None]]
    pts = np.hstack(pts)
    return pts[:, :-1], pts[:, 1:]


def _panel_product_row(N: int, alpha: float, t, a, b, nodes) -> np.ndarray:
    """int_a^b K(t, s) l_m(s) s^(N-1) ds, as a (P, 3) array, for P (target,
    panel) pairs t, a, b and the quadratic Lagrange basis l_m of nodes (P, 3).

    Each panel is split at s = t when it falls inside, refining geometrically
    toward the singular point; handles the |r-s|^(alpha-1)-type local
    behavior.  One `kernel_value` call covers the Gauss points of every pair.
    """
    lo, hi = _refined_pieces(t, a, b)
    pair, piece = np.nonzero(hi > lo)
    lo, hi = lo[pair, piece, None], hi[pair, piece, None]
    half = 0.5 * (hi - lo)
    xs = 0.5 * (lo + hi) + half * _GL8[0]
    K = kernel_value(N, alpha, t[pair, None], xs)
    x0, x1, x2 = (nodes[pair, m, None] for m in range(3))
    l0 = (xs - x1) * (xs - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (xs - x0) * (xs - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (xs - x0) * (xs - x1) / ((x2 - x0) * (x2 - x1))
    base = K * xs ** (N - 1) * (half * _GL8[1])
    pair = np.repeat(pair, len(_GL8[0]))
    return np.stack([np.bincount(pair, (base * lm).ravel(), len(t))
                     for lm in (l0, l1, l2)], axis=1)


@dataclass(frozen=True)
class RieszKernelTable:
    """The cached pairing table of one (grid, alpha): int (I_alpha*f) g =
    f^T G g, G exactly symmetric; `apply` reads one triangle of it."""

    grid: RadialGrid
    alpha: float
    G: np.ndarray

    def convolve_values(self, gvals: np.ndarray) -> np.ndarray:
        # kept only because bench/tracing.py wraps it by name; ROADMAP item 1
        # deletes it together with that tracer line
        return _rows(self.grid, self.alpha, self.grid.r) @ gvals

    def apply(self, x: np.ndarray) -> np.ndarray:
        """G @ x by BLAS dsymv, which reads one triangle of the symmetric G.

        G.T is the Fortran-ordered view of the C-ordered G, so f2py passes it
        without a copy; G itself would be copied, n^2 doubles, on every call.
        """
        return dsymv(1.0, self.G.T, x)

    def bilinear(self, fvals: np.ndarray, gvals: np.ndarray) -> float:
        return float(fvals @ self.apply(gvals))


# targets per block of `_rows`: the block's kernel samples and near-panel
# Gauss points are its only temporaries, so they take O(_BLOCK * n) memory
_BLOCK = 64


def _near_mask(grid: RadialGrid, starts, ends, t) -> np.ndarray:
    """near[k, i]: panel i, [starts[i], ends[i]], lies within one panel-width
    of t[k]; the head segment counts when the target is at most r[2]."""
    width = ends - starts
    t = t[:, None]
    near = (starts - width <= t) & (t <= ends + width)
    near[:, 0] = t[:, 0] <= grid.r[2]
    return near


def _rows(grid: RadialGrid, alpha: float, targets) -> np.ndarray:
    """Quadrature rows: rows[k] @ g.values is (I_alpha * g)(targets[k]).

    The kernel is sampled at the nodes, except at a node that coincides with
    the target (relative tolerance only: graded grids put distinct nodes
    closer than any absolute one).  On the panels near each target the sampled
    contribution is swapped for the exact one, by one product integration per
    block of _BLOCK targets.
    """
    t = np.asarray(targets, dtype=float)
    r = grid.r
    starts, ends, idx = (np.array(x) for x in zip(*grid.panels))
    rows = np.empty((t.size, grid.n))
    for s in range(0, t.size, _BLOCK):
        tb, blk = t[s:s + _BLOCK], rows[s:s + _BLOCK]
        far = kernel_value(grid.N, alpha, tb[:, None], r[None, :])
        far[np.isclose(r[None, :], tb[:, None], atol=0.0)] = 0.0
        np.multiply(far, grid.w, out=blk)
        # row-major, so each target's panels come in ascending order
        k, p = np.nonzero(_near_mask(grid, starts, ends, tb))
        cor = _panel_product_row(grid.N, alpha, tb[k], starts[p], ends[p], r[idx[p]])
        k, cols = k[:, None], idx[p]
        np.add.at(blk, (k, cols), cor - far[k, cols] * grid.panel_weights[p])
    return rows


def _build_table(grid: RadialGrid, alpha: float) -> RieszKernelTable:
    # the rows at the nodes turn into G in place: weighted, then
    # G <- (G + G.T) / 2, _BLOCK rows (and columns) at a time: the block rows
    # from the diagonal on, and their mirror columns
    G = _rows(grid, alpha, grid.r)
    G *= grid.weights_full[:, None]
    for s in range(0, grid.n, _BLOCK):
        e = s + _BLOCK
        sym = G[s:e, s:] + G[s:, s:e].T
        sym *= 0.5
        G[s:e, s:] = sym
        G[s:, s:e] = sym.T
    return RieszKernelTable(grid=grid, alpha=alpha, G=G)


# tables kept, least recently used evicted first: the multiplicity pipeline
# alternates between 3 tables, and a bubble sweep uses each of its tables once
_CACHED_TABLES = 4
_TABLE_CACHE: OrderedDict = OrderedDict()


def kernel_table(grid: RadialGrid, alpha: float) -> RieszKernelTable:
    """Build or reuse the convolution table for (grid, alpha); equal grids
    share one table while it stays among the _CACHED_TABLES most recently
    used."""
    key = (grid.key, float(alpha))
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = _build_table(grid, alpha)
        _TABLE_CACHE[key] = tab
        if len(_TABLE_CACHE) > _CACHED_TABLES:
            _TABLE_CACHE.popitem(last=False)
    else:
        _TABLE_CACHE.move_to_end(key)
    return tab


def convolve(grid: RadialGrid, g: RadialField, alpha: float) -> RadialField:
    """I_alpha * g on the grid; positive whenever g is nontrivial and >= 0.

    From the quadrature rows at the nodes and at r = 0, not from G: the two
    agree to quadrature accuracy, but dividing G by the tiny origin-side
    weights would amplify its symmetrization residue pointwise."""
    _check_same_grid(grid, g)
    vals = _rows(grid, alpha, grid.r) @ g.values
    origin = float(np.dot(_rows(grid, alpha, [0.0])[0], g.values))
    return RadialField(grid=grid, values=vals, origin=origin)


def potential_at(grid: RadialGrid, g: RadialField, alpha: float, r_targets) -> np.ndarray:
    """Potential values at arbitrary radii (rows built on demand)."""
    return _rows(grid, alpha, np.atleast_1d(r_targets)) @ g.values


def interaction_energy(grid: RadialGrid, u: RadialField, p: float, alpha: float) -> float:
    """int (I_alpha * u^p) u^p through the symmetric G.  Nonnegativity is not
    guaranteed: G can have negative eigenvalues (N = 5, alpha = 4.5)."""
    _check_same_grid(grid, u)
    tab = kernel_table(grid, alpha)
    up = np.abs(u.values) ** p
    return tab.bilinear(up, up)

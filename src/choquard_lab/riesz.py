"""Riesz potential engine for radial fields.

The reduced radial kernel is the exact angular average of
A_alpha(N) |x-y|^(alpha-N) over a sphere, evaluated in closed form through
a Gauss hypergeometric function F of z = (min/max)^2 (see `kernel_value`).
In N = 3, F is elementary at every alpha (Newton's shell theorem).  For
N >= 4 it has two branches, chosen from z alone: scipy's `hyp2f1` for
z <= 1/2, and above it the z -> 1-z connection formula (DLMF 15.8.4, with
its integer alpha - 1 limit, 15.8.10, in one form: `_Connection`), series in
w = 1 - z summed in numpy with w formed from max - min, the later terms only
where a point's own w needs them, so that a value never depends on the other
points of a call.  Near the diagonal, where the quadrature samples most,
neither suffers the rounding of z to 1, and both are far cheaper than
`hyp2f1` (on a 2-core Xeon the N = 3 form takes 16-45 ns a point, `hyp2f1`
0.3 us at alpha = 1, about 30 us else).

Quadrature rows sample the kernel at the nodes, once per node pair at the
nodes themselves; near the diagonal, where it has a kink (alpha = 2), a
logarithmic singularity (alpha = 1) or an integrable algebraic one
(alpha < 1), panels are product-integrated: by exact moments in N = 3, in one
call over all targets, by Gauss rules on graded sub-panels, per block of
targets, for N >= 4.  `convolve` and `potential_at` apply the rows to g one
block of targets at a time (`_potential`), never holding them all.  The
solvers read only the pairing int (I_alpha * f) g = f^T G g, G_ij =
(W_i R_ij + W_j R_ji) / 2 with R the rows at the nodes and W the node weights.
A table per (grid, alpha) holds G as a HODLR matrix: dense diagonal leaves and
off-diagonal blocks of rank about 20, accurate to roundoff, so that every
product (`apply`) is a few batched matmuls over under a fifth of G's n^2
entries (n = 1000).  The build forms each block from its own kernel samples
and near-panel swaps (`_table_block`) and compresses it before the next
(`_compress`, by numpy's SVD of a random sketch), so no array holds G whole:
its largest is the first off-diagonal block, (n/2)^2 entries.  The
_CACHED_TABLES most recently used tables are kept, keyed by (grid, alpha).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gamma, pi
from numbers import Integral
from typing import NamedTuple

import numpy as np
from scipy.special import hyp2f1

from .errors import IncompatibleGrid, InvalidParameter
from .grid import _I, _J, RadialField, RadialGrid, _check_same_grid, sphere_surface

__all__ = ["kernel_value", "RieszKernelTable", "kernel_table", "convolve",
           "interaction_energy", "potential_at"]

_GL8 = np.polynomial.legendre.leggauss(8)


def _check_dimension(N):
    """InvalidParameter unless N is an integer >= 3."""
    if not isinstance(N, Integral) or N < 3:
        raise InvalidParameter(f"dimension N={N!r} must be an integer >= 3")


def riesz_normalization(N: int, alpha: float) -> float:
    """A_alpha(N) = Gamma((N-alpha)/2) / (Gamma(alpha/2) pi^(N/2) 2^alpha).

    Gamma(alpha/2) ~ 2/alpha overflows a double near alpha = 1e-308, A_alpha
    does not: below alpha = 1e-300, 1/Gamma(alpha/2) = (alpha/2) / Gamma(1 + alpha/2).
    """
    _check_dimension(N)
    if not 0 < alpha < N:
        raise InvalidParameter(f"alpha={alpha} outside (0, N={N})")
    if alpha < 1e-300:
        return alpha * (gamma((N - alpha) / 2)
                        / (2 * gamma(1 + alpha / 2) * pi ** (N / 2) * 2 ** alpha))
    return gamma((N - alpha) / 2) / (gamma(alpha / 2) * pi ** (N / 2) * 2 ** alpha)


# series terms below this no longer change an O(1) sum in double precision;
# every point sums the first _SHALLOW terms, all a w below about 0.07 needs
_SERIES_TOL, _SHALLOW = 2.0 ** -56, 16


class _Connection(NamedTuple):
    """DLMF 15.8.4 for F(a, b; c; z) with eps = c - a - b = alpha - 1, w = 1 - z:

        F = A1 S1 + A2 w^eps S2,   S1 = F(a, b; 1-eps; w),  S2 = F(a+eps, b+eps; 1+eps; w),

    regrouped about m = max(round(eps), 0), d = eps - m, as F = A1 H +
    w^m [sigma Dd + S2 (T0 + A2d E_d(w))]: H is S1's first m terms, Dd_j =
    (s1_(m+j) / s1_m - s2_j) / d with s1, s2 the coefficients of S1 and S2,
    E_d = `_E`, sigma = A1 s1_m d and A2d = A2 d.  Where A1 s1_m and A2 have
    opposite poles (d = 0, DLMF 15.8.10) sigma, A2d and T0 = A1 s1_m + A2 have
    none, and T0 is fixed by continuity with `hyp2f1` at z = 1/2.

    coefs[k]: the k-th coefficients of A1 H + w^m sigma Dd and of w^m S2;
    A1: Gauss's value F(1), +inf for alpha <= 1.
    """

    d: float
    A1: float
    A2d: float
    T0: float
    coefs: np.ndarray


class _KernelConstants(NamedTuple):
    """What `kernel_value` needs of (N, alpha) beyond the points.

    pref: A_alpha |S^(N-1)|, which is A_alpha |S^(N-2)| B((N-1)/2, 1/2);
    (a, b, c): the parameters of F.
    """

    pref: float
    a: float
    b: float
    c: float


def _series_coefficients(a: float, b: float, alpha: float, m: int) -> np.ndarray:
    """Rows j of [Dd_j, s2_j] (see `_Connection`), up to where every term at
    w = 1/2 is below _SERIES_TOL and the next ones shrink by a factor of at
    most 3/4 per step; S2's from alpha itself, which cancels nothing as alpha -> 0."""
    d, a2 = alpha - 1.0 - m, a + alpha - 1.0
    p, q, D = 1.0, 1.0, 0.0
    rows = [(D, q)]
    j = 0
    while True:
        A, B, C, M = a + m + j, b + m + j, 1.0 + j, 1.0 + m + j
        r1 = A * B / ((C - d) * M)
        r2 = (a2 + j) * (0.5 * alpha + j) / ((alpha + j) * C)
        if d < -0.5:
            D = (p * r1 - q * r2) / d
        else:       # r1 - r2, with the factor d taken out by hand
            D = D * r1 + q * ((A * B * (C + M) - (A + B) * C * M + d * (A + B - C) * M
                               + d * d * M) / ((C - d) * M * (M + d) * C))
        p, q = p * r1, q * r2
        rows.append((D, q))
        j += 1
        if (max(abs(D), abs(q)) * 0.5 ** j < _SERIES_TOL
                and max(abs(r1), abs(r2)) <= 1.5):
            return np.array(rows)


def _horner(S: np.ndarray, coefs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """S w^K + both series of the K rows of `coefs` at w, by Horner, in S."""
    for ck in coefs[::-1, :, None]:
        S *= w
        S += ck
    return S


def _sum_series(coefs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Both series of `coefs` at w, by Horner: the first _SHALLOW terms at
    every point, and all the terms at the points whose own w needs a later one
    (max|coefs[k]| w^k >= _SERIES_TOL for some k >= _SHALLOW), so that a value
    depends on its own w alone."""
    k = np.arange(_SHALLOW, len(coefs))
    with np.errstate(divide="ignore"):          # a zero coefficient is never needed
        reach = (_SERIES_TOL / np.abs(coefs[_SHALLOW:]).max(axis=1)) ** (1.0 / k)
    S = np.zeros((2, w.size))
    deep = np.flatnonzero(w >= reach.min(initial=np.inf))
    S[:, deep] = _horner(np.zeros((2, deep.size)), coefs[_SHALLOW:], w[deep])
    return _horner(S, coefs[:_SHALLOW], w)


@lru_cache(maxsize=64)
def _kernel_constants(N: int, alpha: float) -> _KernelConstants:
    """The constants of (N, alpha), computed once; InvalidParameter unless
    0 < alpha < N."""
    pref = riesz_normalization(N, alpha) * sphere_surface(N)
    return _KernelConstants(pref, (N - alpha) / 2.0, 1.0 - alpha / 2.0, N / 2.0)


@lru_cache(maxsize=64)
def _connection(N: int, alpha: float) -> _Connection:
    """The `_Connection` of (N, alpha), computed once."""
    _, a, b, c = _kernel_constants(N, alpha)
    eps = alpha - 1.0
    m = max(round(eps), 0)
    d, poch = eps - m, np.prod(np.arange(m) - eps)       # prod_(k<m) (k - eps)
    A1 = gamma(c) * gamma(eps) / (gamma(alpha / 2) * gamma(c - b)) if eps > 0 else np.inf
    k, h = np.arange(m), np.arange(m - 1)
    head = A1 * np.cumprod(np.r_[1.0, (a + h) * (b + h) / ((1 - eps + h) * (1 + h))])[:m]
    # Gamma(alpha) / Gamma(alpha/2) as Gamma(1 + alpha) / (2 Gamma(1 + alpha/2))
    sigma = (gamma(c) * gamma(1 + alpha) * np.prod((a + k) * (b + k) / (1 + k))
             / (2 * poch * gamma(1 + alpha / 2) * gamma(c - b)))
    # 1/Gamma(b) = 0 at an even alpha (b = 1 - alpha/2 = 0, -1, ...)
    A2d = 0.0 if alpha % 2 == 0 else -gamma(c) * gamma(1 - d) / (poch * gamma(a) * gamma(b))
    coefs = np.vstack([np.c_[head, np.zeros(m)],
                       _series_coefficients(a, b, alpha, m) * [sigma, 1.0]])
    coefs.flags.writeable = False
    G, S = _sum_series(coefs, np.array([0.5]))[:, 0]
    T0 = (hyp2f1(a, b, c, 0.5) - G) / S - A2d * _E(d, -np.log(2.0))
    return _Connection(d, A1, A2d, T0, coefs)


def _connection_branch(con: _Connection, hi, lo):
    """F((lo/hi)^2) through DLMF 15.8.4, for lo/hi > 1/sqrt(2)."""
    w = ((hi - lo) / hi) * ((hi + lo) / hi)      # hi - lo is exact here
    G, S = _sum_series(con.coefs, w)
    logw = np.log(w, out=np.zeros_like(w), where=w > 0)
    F = G + S * (con.T0 + con.A2d * _E(con.d, logw))
    F[w == 0] = con.A1      # w^eps is 0 there for alpha > 1, +inf for alpha <= 1
    return F


def _shell_average(eps: float, x, hi, lo, lm):
    """F(x^2) at N = 3, x = lo/hi: a - b = 1/2 makes it elementary (DLMF §15.4),
    [(1+x)^eps - (1-x)^eps] / (2 eps x), artanh(x)/x at eps = 0.  Each power
    minus one is expm1(eps log(1 +- x)), with log(1 - x) from hi - lo where
    that is exact (lo > hi/2); +inf on the diagonal for eps <= 0, Gauss's
    2^(eps-1)/eps for eps > 0.  Written into lo, with lm as scratch."""
    near = lo > np.multiply(hi, 0.5, out=lm)
    with np.errstate(divide="ignore", invalid="ignore"):     # log(0), 0/0 at x = 0
        np.log1p(np.negative(x, out=lm), out=lm)
        d = np.subtract(hi, lo, out=lo)
        np.divide(d, hi, where=near, out=d)
        np.log(d, where=near, out=lm)
        lp = np.log1p(x, out=d)
        if eps != 0.0:              # each power minus one, in place
            for v in (lp, lm):
                np.expm1(np.multiply(eps, v, out=v), out=v)
        lp -= lm
        lp /= eps or 1.0
        lp /= np.multiply(x, 2.0, out=lm)
    lp[x == 0] = 1.0
    return lp


def kernel_value(N: int, alpha: float, r, s):
    """Reduced radial kernel K(r, s) with (I_alpha * g)(r) = int K(r,s) g(s) s^(N-1) ds.

    Exact angular average of A_alpha(N)|x-y|^(alpha-N) over the sphere |y| = s:
        K = A_alpha |S^(N-1)| max(r,s)^(alpha-N)
            * 2F1((N-alpha)/2, 1-alpha/2; N/2; (min/max)^2),
    where |S^(N-1)| = |S^(N-2)| B((N-1)/2, 1/2) is the integral over the angles.
    With z = (min/max)^2 and (a, b, c) the parameters of 2F1, F is
      - 1 at alpha = 2;
      - at N = 3, the elementary `_shell_average`, within 1e-14 relative of
        the exact value at every alpha and up to the diagonal;
      - for N >= 4, scipy's `hyp2f1` at z <= 1/2;
      - for N >= 4 and z > 1/2, the z -> 1-z connection formula
        F = A1 F(a, b; 2-alpha; w) + A2 w^(alpha-1) F(c-a, c-b; alpha; w)
        (DLMF 15.8.4), regrouped so that it holds at every alpha, integer
        alpha - 1 included (`_Connection`), with w = 1 - z formed from
        max - min, within 1e-13 relative of the exact value up to the diagonal.
    On the diagonal K is +inf for alpha <= 1 and finite for alpha > 1 (and
    +inf at r = s = 0); the quadrature rows never use it there (product
    integration takes over).
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    shape = np.broadcast_shapes(r.shape, s.shape)
    if not alpha < 1e-300:
        return _kernel(N, alpha, r, s, *(np.empty(shape) for _ in range(4)))[()]
    with np.errstate(invalid="ignore"):     # A_alpha underflows to 0 against the diagonal +inf
        K = _kernel(N, alpha, r, s, *(np.empty(shape) for _ in range(4)))
    K[r == s] = np.inf
    return K[()]


def _kernel(N: int, alpha: float, r, s, out, *work):
    """`kernel_value` written into out, the broadcast shape of r and s, with
    three more arrays of that shape in work for its temporaries (N = 3 makes
    no other float array of that size)."""
    kc = _kernel_constants(N, alpha)
    hi = np.maximum(r, s, out=out)
    lo = np.minimum(r, s, out=work[0])
    x = work[1]
    x.fill(0.0)
    np.divide(lo, hi, where=hi > 0, out=x)
    if alpha == 2.0:
        F = None
    elif N == 3:
        F = _shell_average(alpha - 1.0, x, hi, lo, work[2])
    else:
        z2 = x ** 2
        near = z2 > 0.5
        F = np.empty_like(z2)
        F[~near] = hyp2f1(kc.a, kc.b, kc.c, z2[~near])
        F[near] = _connection_branch(_connection(N, alpha), hi[near], lo[near])
    with np.errstate(divide="ignore"):          # +inf at r = s = 0
        hi **= alpha - N
    hi *= kc.pref
    if F is not None:
        hi *= F
    return out


# distances L / 4^k (k = 1..13) of the graded cut points from the singular end
_QUARTERS = 0.25 ** np.arange(1, 14)


def _refined_pieces(t, a, b):
    """Sub-intervals (lo, hi), each (P, 29) and ascending, of the panels [a, b]
    graded toward the targets t (N >= 4): a panel is split at t when it falls
    inside, and each part is cut at distances L / 4^k (k = 1..13, L its length)
    from its end nearest t; an unused cut leaves an empty piece.  A cut within
    1e-11 |end| of that end is unused, and a target within 1e-11 relative of a
    panel end counts as sitting there: closer, Gauss points round onto t.
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


_CUT, _TERMS = 8.0, 9     # N = 3: x = s/t below s = _CUT t, 9 terms in (t/s)^2 <= 1/64 above
_V_TO_W = np.array([[comb(k, j) * (-2.0) ** (k - j) for k in range(4)] for j in range(4)])


def _E(eps: float, logy):
    """(y^eps - 1)/eps from log y; log y itself at eps = 0."""
    return logy if eps == 0.0 else np.expm1(eps * logy) / eps


def _moments(alpha: float, lo, hi) -> np.ndarray:
    """int_lo^hi w^k E(|w|) dw, k = 0..3, as (P, 4), exactly (E(1) = 0 stands in at W = 0):
    int_0^W w^k E(|w|) dw = W^(k+1) [E(|W|) - 1/(k+1)] / (k + alpha)."""
    W, k = np.stack([lo, hi]), np.arange(4.0)
    W2, E = W * W, _E(alpha - 1.0, np.log(np.abs(W) + (W == 0)))[..., None]
    prim = np.stack([W, W2, W2 * W, W2 * W2], -1) * (E - 1 / (k + 1)) / (k + alpha)
    M = prim[1] - prim[0]
    if alpha < 0.5:  # k = 0 on one side of 0: |W|^alpha/alpha differenced by expm1
        one = lo * hi > 0
        r, S = np.log(hi[one] / lo[one]), np.sign(hi[one]) * np.abs(lo[one]) ** alpha
        M[one, 0] = (S * np.expm1(alpha * r) / alpha - (hi - lo)[one]) / (alpha - 1.0)
    return M


def _shell_x_piece(alpha: float, t, a, m, xi, xj, Dm) -> np.ndarray:
    """int_a^m K(t,s) l(s) s^2 ds / pref for m <= _CUT t: K s^2 ds = (pref/2) t^alpha
    x [E(1+x) - E(|1-x|)] dx, x = s/t = 1 + w, x l(t x) a cubic in w.  Each factor's
    w-moments are exact (the regular one's from v = 1 + x by _V_TO_W, w^k = (v - 2)^k)
    within two piece widths of its singular point s = +-t, else 8-point Gauss."""
    tt, h = t[:, None], 0.5 * (m - a)[:, None]
    s = 0.5 * (a + m)[:, None] + h * _GL8[0]
    w, q = (s - tt) / tt, h / tt * _GL8[1]       # w = 0 only at a Gauss point on t (moments there)

    def gauss(logy):                # 8-point Gauss-Legendre sums of E w^k, k = 0..3
        e = _E(alpha - 1.0, logy()) * q
        ew, ew2 = e * w, e * (w * w)
        return np.stack([e.sum(1), ew.sum(1), ew2.sum(1), (ew2 * w).sum(1)], -1)

    def factor(dist, logy, exact):
        far = dist[:, None] >= 4 * h
        if far.all():
            return gauss(logy)
        return np.where(far, gauss(logy), exact()) if far.any() else exact()
    logw = lambda: np.log(np.abs(w), out=np.zeros_like(w), where=w != 0)
    sing = factor(np.maximum(a - t, t - m), logw, lambda: _moments(alpha, (a - t) / t, (m - t) / t))
    reg = factor(a + t, lambda: np.log1p(s / tt),
                 lambda: _moments(alpha, (a + t) / t, (m + t) / t) @ _V_TO_W)
    ri, rj = (tt - xi) / tt, (tt - xj) / tt
    M0, M1, M2, M3 = (reg - sing)[:, :, None].transpose(1, 0, 2)
    return 0.5 * tt ** (2 + alpha) * (ri * rj * (M0 + M1) + (ri + rj) * (M1 + M2) + M2 + M3) / Dm


def _shell_series_piece(alpha: float, t, lo, hi, xi, xj, Dm) -> np.ndarray:
    """int_lo^hi K(t,s) l(s) s^2 ds / pref for t <= lo/_CUT (t = 0 included): K s^2 = pref
    s^eps sum_j C(eps, 2j+1)/eps (t/s)^(2j), where t^(2j) int s^(p-1) ds = (t/X)^(2j)
    X^(eps+k+1) (1 - e^(-|p| L))/|p|, X = hi if p > 0 else lo, L = log(hi/lo); lo = 0
    only in the origin row, where L = inf and rho = t/X = 0 takes out p = 0."""
    j, (t, lo, hi) = np.arange(_TERMS)[:, None], (v[:, None, None] for v in (t, lo, hi))
    k, i = alpha + np.arange(3), 2.0 * np.arange(1, _TERMS)      # k: eps + k + 1; i = 2j + 2
    p, g = k - 2 * j, np.cumprod(np.r_[1.0, (alpha - i) * (alpha - i - 1) / (i * (i + 1))])
    X = np.where(p > 0, hi, lo)
    L = np.log(np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0))
    ap = np.where(p != 0, abs(p), 1.0)
    F = np.where(p != 0, -np.expm1(-ap * L) / ap, np.where(lo > 0, L, 0.0))
    rho = np.divide(t, X, out=np.zeros(X.shape), where=X > 0)
    mom = np.einsum("njk,j->nk", rho ** (2 * j) * X ** k * F, g)
    return (xi * xj * mom[:, :1] - (xi + xj) * mom[:, 1:2] + mom[:, 2:]) / Dm


def _panel_product_row(N: int, alpha: float, t, a, b, nodes) -> np.ndarray:
    """int_a^b K(t, s) l_m(s) s^(N-1) ds, as a (P, 3) array, for P (target,
    panel) pairs t, a, b and the quadratic Lagrange basis l_m of nodes (P, 3).

    N = 3: exact, each panel cut at s = _CUT t into `_shell_x_piece` below and
    `_shell_series_piece` above.  N >= 4: Gauss rules on the `_refined_pieces`
    of each panel, graded toward s = t, one `kernel_value` call over all pairs.
    """
    xi, xj = nodes[:, _I], nodes[:, _J]
    Dm = (nodes - xi) * (nodes - xj)
    if N == 3:
        m, out = np.minimum(np.maximum(_CUT * t, a), b), np.zeros((t.size, 3))
        for lo, hi, piece in ((a, m, _shell_x_piece), (m, b, _shell_series_piece)):
            k = slice(None) if (hi > lo).all() else np.flatnonzero(hi > lo)
            if t[k].size:
                out[k] += piece(alpha, t[k], lo[k], hi[k], xi[k], xj[k], Dm[k])
        return _kernel_constants(3, alpha).pref * out
    lo, hi = _refined_pieces(t, a, b)
    pair, piece = np.nonzero(hi > lo)
    lo, hi = lo[pair, piece, None], hi[pair, piece, None]
    half = 0.5 * (hi - lo)
    xs = 0.5 * (lo + hi) + half * _GL8[0]
    K = kernel_value(N, alpha, t[pair, None], xs)
    ls = (xs[:, None] - xi[pair, :, None]) * (xs[:, None] - xj[pair, :, None]) / Dm[pair, :, None]
    base = K * xs ** (N - 1) * (half * _GL8[1])
    pair = np.repeat(pair, len(_GL8[0]))
    return np.stack([np.bincount(pair, (base * ls[:, m]).ravel(), len(t))
                     for m in range(3)], axis=1)


@dataclass(frozen=True)
class RieszKernelTable:
    """The cached pairing table of one (grid, alpha): int (I_alpha*f) g =
    f^T G g, G (see the module) as a HODLR matrix, built block by block
    (`_build_table`): on the nodes padded to 2^L m, diagonal `leaves`
    (2^L, m, m) and, per level l, `factors[l]` (2^l, 2, b, k), the U and V of
    each upper block U V^T (b nodes square), mirrored as V U^T."""

    grid: RadialGrid
    alpha: float
    leaves: np.ndarray
    factors: tuple

    def convolve_values(self, gvals: np.ndarray) -> np.ndarray:
        # kept only because bench/tracing.py wraps it by name; ROADMAP item 1
        # deletes it together with that tracer line
        return _potential(self.grid, self.alpha, self.grid.r, gvals)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """G @ x to roundoff: one batched product over the symmetric leaves, as
        x^T L (numpy's faster form), and two per level, [x_upper^T U,
        x_lower^T V] and then U and V times the other's.  IncompatibleGrid
        unless x holds one value per node."""
        P, m, _ = self.leaves.shape
        xp = np.zeros(P * m)
        xp[:self.grid.n] = self._on_grid(x)
        y = (xp.reshape(P, 1, m) @ self.leaves).ravel()
        for F in self.factors:
            c = xp.reshape(len(F), 2, 1, -1) @ F
            y += (F @ c.transpose(0, 1, 3, 2)[:, ::-1]).ravel()
        return y[:self.grid.n]

    def bilinear(self, fvals: np.ndarray, gvals: np.ndarray) -> float:
        return float(self._on_grid(fvals) @ self.apply(gvals))

    def _on_grid(self, x):
        if np.shape(x) != (self.grid.n,):
            raise IncompatibleGrid(f"{np.shape(x)} values on a grid of {self.grid.n} nodes")
        return x


# targets per block of `_potential`: a block's kernel samples (and N >= 4's
# near-panel Gauss points) are its n-sized temporaries, O(_BLOCK * n), the
# samples and the kernel's own in one `_workspace` per loop
_BLOCK = 64


def _workspace(width: int) -> np.ndarray:
    """Scratch for the `_block_samples` of up to _BLOCK targets and `width`
    nodes (or as many entries otherwise shaped): the samples and three arrays
    for the kernel's temporaries, which the caller may reuse once it holds
    the samples."""
    return np.empty((4, _BLOCK * width))


def _near_mask(grid: RadialGrid, starts, ends, t) -> np.ndarray:
    """near[k, i]: panel i, [starts[i], ends[i]], lies within one panel-width
    of t[k]; the head segment counts when the target is at most r[2]."""
    width = ends - starts
    t = t[:, None]
    near = (starts - width <= t) & (t <= ends + width)
    near[:, 0] = t[:, 0] <= grid.r[2]
    return near


def _block_samples(grid: RadialGrid, alpha: float, tb, cols: slice, work) -> np.ndarray:
    """K(tb, r[cols]) in work[0] (`_workspace`), zero at a node within 1e-5
    relative of a target (only relative: graded grids put distinct nodes
    closer than any absolute one)."""
    r = grid.r[cols]
    K, *tmp = (v[:tb.size * r.size].reshape(tb.size, r.size) for v in work)
    _kernel(grid.N, alpha, tb[:, None], r, K, *tmp)
    a, b = np.searchsorted(r, [np.fmin.reduce(tb) * (1 - 2e-5), np.fmax.reduce(tb) * (1 + 2e-5)])
    K[:, a:b][np.abs(r[a:b] - tb[:, None]) <= 1e-5 * np.abs(tb[:, None])] = 0.0
    return K


def _near_panels(grid: RadialGrid, alpha: float, t):
    """(k, p, cor): the near panels p of each target k (`_near_mask`), k and
    then p ascending, and their exact contributions cor, (pairs, 3), from
    `_panel_product_row`: in one call for N = 3, per block of _BLOCK targets
    for N >= 4.  A row takes cor in place of its weighted samples there."""
    starts, ends, idx = grid.panels
    exact = lambda k, p: _panel_product_row(grid.N, alpha, t[k], starts[p], ends[p],
                                            grid.r[idx[p]])
    k, p, cor = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros((0, 3))]
    for s in range(0, t.size, _BLOCK):
        kb, pb = np.nonzero(_near_mask(grid, starts, ends, t[s:s + _BLOCK]))
        k.append(kb + s)
        p.append(pb)
        if grid.N > 3:
            cor.append(exact(kb + s, pb))
    k, p = np.concatenate(k), np.concatenate(p)
    return k, p, np.concatenate(cor) if grid.N > 3 else exact(k, p)


def _potential(grid: RadialGrid, alpha: float, targets, g: np.ndarray) -> np.ndarray:
    """(I_alpha * g)(targets), one block of _BLOCK targets at a time: the
    weighted kernel samples at the nodes applied to g, with the near panels
    swapped for `_near_panels`.  At the nodes a block samples one triangle and
    adds its mirror to the rows below, and samples again the near nodes left
    of it (the same bits)."""
    t = np.asarray(targets, dtype=float)
    idx, nodes = grid.panels.nodes, np.array_equal(t, grid.r)
    k, p, cor = _near_panels(grid, alpha, t)
    wg, y, work = grid.w * g, np.zeros(t.size), _workspace(grid.n)
    for s in range(0, t.size, _BLOCK):
        e, lo = s + _BLOCK, s if nodes else 0
        a, b = np.searchsorted(k, (s, e))
        kb, cols = k[a:b] - s, idx[p[a:b]]
        c = cols.min(initial=lo)
        K = _block_samples(grid, alpha, t[s:e], slice(c, None), work)
        y[s:e] += K[:, lo - c:] @ wg[lo:]
        if nodes:
            y[e:] += K[:, e - c:].T @ wg[s:e]
        swap = cor[a:b] - K[kb[:, None], cols - c] * grid.panel_weights[p[a:b]]
        y[s:e] += np.bincount(kb, (swap * g[cols]).sum(1), len(K))
    return y


# leaves of at most _LEAF nodes; an off-diagonal block's range is sketched by
# _SKETCH columns at first and cut at _TRUNCATE (`_low_rank`)
_LEAF, _TRUNCATE, _SKETCH = 125, 1e-15, 32


def _low_rank(B: np.ndarray):
    """U, V with B = U V^T to roundoff: U = D_r Q and V = B^T D_r^-1 Q, Q an
    orthonormal basis of the range of D_r^-1 B D_c^-1, B with its rows and then
    its columns scaled to a largest entry of 1 (so that the small entries of a
    kernel falling as a power keep their relative accuracy).  Q holds the left
    singular vectors of a seeded random sketch of that range (Halko, Martinsson
    & Tropp, SIAM Rev. 53, 2011), cut at s_j < _TRUNCATE s_0, the sketch
    widened while the cut comes within 8 of its width."""
    dr, dc = np.empty(len(B)), np.zeros(B.shape[1])
    for s in range(0, len(B), _BLOCK):      # _BLOCK rows of |B| at a time
        A = np.abs(B[s:s + _BLOCK])
        d = A.max(axis=1, initial=0.0)
        d[d == 0] = 1.0
        dr[s:s + _BLOCK] = d
        A /= d[:, None]
        np.fmax(dc, A.max(axis=0, initial=0.0), out=dc)
    dc[dc == 0] = 1.0
    k = _SKETCH
    while True:
        k = min(k, *B.shape)
        omega = np.random.default_rng(0).uniform(-1.0, 1.0, (B.shape[1], k))
        Q, sv, _ = np.linalg.svd(B @ (omega / dc[:, None]) / dr[:, None], full_matrices=False)
        r = np.count_nonzero(sv > _TRUNCATE * sv.max(initial=0.0))
        if r < k - 8 or k == min(B.shape):
            Q = Q[:, :r]
            return dr[:, None] * Q, B.T @ (Q / dr[:, None])
        k *= 2


def _compress(n: int, block):
    """(leaves, factors) of `RieszKernelTable` for n nodes from block(rows,
    cols), the block G[rows, cols] for slices within [0, n), m = ceil(n / 2^L)
    <= _LEAF.  Each block is formed and compressed (`_low_rank`) before the
    next, its factors zero-padded to its level's largest rank; the largest
    block comes first, before the table holds anything."""
    L = (-(-n // _LEAF) - 1).bit_length()       # the least L with n <= 2^L _LEAF
    m = -(-n // 2 ** L)
    span = lambda a, b: slice(min(a, n), min(b, n))
    factors = []
    for level in range(L):
        b = m << (L - level - 1)
        UV = [_low_rank(block(span(2 * i * b, (2 * i + 1) * b),
                              span((2 * i + 1) * b, (2 * i + 2) * b)))
              for i in range(2 ** level)]
        F = np.zeros((2 ** level, 2, b, max(U.shape[1] for U, _ in UV)))
        for i, (U, V) in enumerate(UV):
            F[i, 0, :len(U), :U.shape[1]] = U
            F[i, 1, :len(V), :V.shape[1]] = V
        factors.append(F)
    leaves = np.zeros((2 ** L, m, m))
    for i in range(2 ** L):
        blk = block(span(i * m, (i + 1) * m), span(i * m, (i + 1) * m))
        leaves[i, :len(blk), :len(blk)] = blk
    return leaves, tuple(factors)


def _table_block(grid: RadialGrid, alpha: float, near, rows: slice, cols: slice,
                 work) -> np.ndarray:
    """G[rows, cols], rows the same as cols or left of them, as many rows at a
    time as `work` holds: G_ij = (W_i R_ij + W_j R_ji) / 2, R_ij the row of
    target i at node j, K_ij w_j with the near-panel swaps of target i.  K is
    sampled at (i, j) alone and stands in for K_ji, the kernel being
    symmetric.  near: the near entries (`_build_table`) by target and by node."""
    W, w, c0 = grid.weights_full, grid.w, cols.start
    B = np.empty((rows.stop - rows.start, cols.stop - c0))
    step = work.shape[1] // max(B.shape[1], 1)
    for s in range(rows.start, rows.stop, step):
        e = min(s + step, rows.stop)
        K = _block_samples(grid, alpha, grid.r[s:e], cols, work)
        R, RT = (v[:K.size].reshape(K.shape) for v in work[1:3])
        np.multiply(K, w[cols], out=R)          # R[i, j] = R_ij
        np.multiply(K, w[s:e, None], out=RT)    # RT[i, j] = R_ji
        for X, (tgt, nod, cor, pw) in zip((R, RT), near):
            a, b = np.searchsorted(tgt, (s, e))
            here = (c0 <= nod[a:b]) & (nod[a:b] < cols.stop)
            i, j = tgt[a:b][here] - s, nod[a:b][here] - c0
            np.add.at(X, (i, j), cor[a:b][here] - K[i, j] * pw[a:b][here])
        R *= W[s:e, None]
        RT *= W[cols]
        out = np.add(R, RT, out=B[s - rows.start:e - rows.start])
        out *= 0.5
    return B


def _build_table(grid: RadialGrid, alpha: float) -> RieszKernelTable:
    """The table of (grid, alpha), assembled and compressed block by block
    (`_compress`, `_table_block`): no array holds G whole."""
    k, p, cor = _near_panels(grid, alpha, grid.r)
    entries = (np.repeat(k, 3), grid.panels.nodes[p].ravel(), cor.ravel(),
               grid.panel_weights[p].ravel())
    # (target, node, exact contribution, panel weight), and with target and
    # node swapped, ordered by node; each entry's panels stay ascending
    by_node = np.argsort(entries[1], kind="stable")
    swapped = tuple(v[by_node] for v in (entries[1], entries[0], *entries[2:]))
    work = _workspace(-(-grid.n // 2))      # the widest off-diagonal block's
    leaves, factors = _compress(grid.n, lambda rows, cols: _table_block(
        grid, alpha, (entries, swapped), rows, cols, work))
    return RieszKernelTable(grid=grid, alpha=alpha, leaves=leaves, factors=factors)


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

    From the quadrature rows at the nodes and at r = 0, applied to g block by
    block (`_potential`), not from G: the two agree to quadrature accuracy, but
    dividing G by the tiny origin-side weights would amplify its
    symmetrization residue pointwise."""
    _check_same_grid(grid, g)
    vals = _potential(grid, alpha, grid.r, g.values)
    origin = float(_potential(grid, alpha, [0.0], g.values)[0])
    return RadialField(grid=grid, values=vals, origin=origin)


def potential_at(grid: RadialGrid, g: RadialField, alpha: float, r_targets) -> np.ndarray:
    """I_alpha * g at finite radii >= 0 (a number or a 1-D sequence), as
    `convolve` forms it: at grid.r and at 0 the same bits as its values and origin."""
    _check_same_grid(grid, g)
    t = np.atleast_1d(np.asarray(r_targets, dtype=float))
    if t.ndim != 1 or not np.all(np.isfinite(t) & (t >= 0)):
        raise InvalidParameter("r_targets must be finite radii >= 0, a number or 1-D")
    return _potential(grid, alpha, t, g.values)


def interaction_energy(grid: RadialGrid, u: RadialField, p: float, alpha: float) -> float:
    """int (I_alpha * u^p) u^p through the symmetric G.  Nonnegativity is not
    guaranteed: G can have negative eigenvalues (N = 5, alpha = 4.5)."""
    _check_same_grid(grid, u)
    tab = kernel_table(grid, alpha)
    up = np.abs(u.values) ** p
    return tab.bilinear(up, up)

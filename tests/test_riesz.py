import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import gamma, pi

from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import hyp1f1, hyp2f1

from choquard_lab import riesz
from choquard_lab.constants import interaction_bound_constant
from choquard_lab.errors import IncompatibleGrid, InvalidParameter
from choquard_lab.grid import RadialField, integrate, make_grid, sphere_surface
from choquard_lab.profiles import hls_extremizer
from choquard_lab.riesz import (convolve, interaction_energy, kernel_table,
                                kernel_value, potential_at, riesz_normalization)


def kernel_bruteforce(N, alpha, r, s):
    """Independent oracle: direct theta-quadrature of the sphere average."""
    f = lambda t: np.sin(t) ** (N - 2) * (r * r + s * s - 2 * r * s * np.cos(t)) ** (-(N - alpha) / 2)
    val, _ = quad(f, 0, pi, limit=200)
    surf = 2 * pi ** ((N - 1) / 2) / gamma((N - 1) / 2)
    return riesz_normalization(N, alpha) * surf * val


def kernel_direct(N, alpha, r, s):
    """Reference: the kernel with scipy's hyp2f1 at every point (no connection
    branch), written as `kernel_value` was before it had one."""
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


def kernel_mpmath(N, alpha, hi, lo):
    """The kernel at 40 digits from the exact binary values of alpha, lo, hi."""
    with mpmath.workdps(40):
        N, alpha, hi, lo = (mpmath.mpf(x) for x in (N, alpha, hi, lo))
        pref = (mpmath.gamma((N - alpha) / 2)
                / (mpmath.gamma(alpha / 2) * mpmath.pi ** (N / 2) * 2 ** alpha)
                * 2 * mpmath.pi ** ((N - 1) / 2) / mpmath.gamma((N - 1) / 2)
                * mpmath.beta((N - 1) / 2, mpmath.mpf(1) / 2))
        F = mpmath.hyp2f1((N - alpha) / 2, 1 - alpha / 2, N / 2, (lo / hi) ** 2)
        return pref * hi ** (alpha - N) * F


def near_integer(alpha):
    """alpha - 1 within 0.01 of an integer: `kernel_value` keeps hyp2f1 there."""
    return abs(alpha - 1 - round(alpha - 1)) < 0.01


@st.composite
def kernel_points(draw):
    """(N, alpha, hi, lo) over N = 3-5, alpha in (0, N) with its edges and
    the integers of alpha - 1, and 1 - lo/hi in [1e-11, 1)."""
    N = draw(st.integers(3, 5))
    alpha = draw(st.one_of(
        # A_alpha(N) is proportional to alpha: subnormal below about 1e-306,
        # where it has fewer than 13 correct digits
        st.floats(1e-300, float(N), exclude_max=True),
        st.builds(lambda k, d: k + d, st.integers(0, N),
                  st.sampled_from([-0.0101, -0.01, -0.0099, -1e-9, 1e-9,
                                   0.0099, 0.01, 0.0101])),
    ).filter(lambda a: 0.0 < a < N))
    gap = 10.0 ** draw(st.floats(-11.0, 0.0, exclude_max=True))
    hi = draw(st.floats(0.1, 10.0))
    return N, alpha, hi, hi * (1.0 - gap)


class TestKernelValue:
    def test_newtonian_examples(self):
        assert np.isclose(kernel_value(3, 2.0, 1.0, 2.0), 0.5, rtol=1e-13)
        assert np.isclose(kernel_value(3, 2.0, 3.0, 3.0), 1.0 / 3.0, rtol=1e-13)
        # symmetry with the first family
        assert np.isclose(kernel_value(3, 2.0, 5.0, 1.0), 0.2, rtol=1e-13)

    def test_symmetry(self, rng):
        for _ in range(20):
            N = int(rng.integers(3, 6))
            alpha = float(rng.uniform(0.3, N - 0.3))
            r, s = rng.uniform(0.1, 5.0, 2)
            assert np.isclose(kernel_value(N, alpha, r, s),
                              kernel_value(N, alpha, s, r), rtol=1e-12)

    def test_positive(self, rng):
        N, alpha = 4, 1.3
        r = rng.uniform(0.05, 8.0, 50)
        s = rng.uniform(0.05, 8.0, 50)
        assert np.all(kernel_value(N, alpha, r, s) > 0)

    @given(N=st.integers(3, 5), frac=st.floats(0.1, 0.9),
           r=st.floats(0.2, 4.0), ratio=st.floats(0.1, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_against_theta_quadrature(self, N, frac, r, ratio):
        alpha = frac * N
        s = ratio * r
        kv = kernel_value(N, alpha, r, s)
        kb = kernel_bruteforce(N, alpha, r, s)
        assert np.isclose(kv, kb, rtol=1e-9)

    @given(point=kernel_points())
    @settings(max_examples=300, deadline=None)
    def test_against_mpmath(self, point):
        # N = 3, the closed form, and N >= 4, the connection branch, to 1e-13
        # all the way to the diagonal; where kernel_value keeps hyp2f1 (N >= 4)
        # it is the direct call, bit for bit
        N, alpha, hi, lo = point
        kv = kernel_value(N, alpha, hi, lo)
        if N > 3 and (near_integer(alpha) or (lo / hi) ** 2 <= 0.5):
            assert kv == kernel_direct(N, alpha, hi, lo)
        if N == 3 or not near_integer(alpha):
            exact = kernel_mpmath(N, alpha, hi, lo)
            assert abs(kv - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5])
    def test_coincident_points(self, alpha):
        # +inf for alpha <= 1, Gauss's value of 2F1 at z = 1 otherwise; any
        # RuntimeWarning fails the test (pyproject.toml)
        N = 3
        r = np.array([0.3, 1.0, 7.5])
        kv = kernel_value(N, alpha, r, r)
        if alpha <= 1:
            assert np.all(kv == np.inf)
        else:
            a, b, c = (N - alpha) / 2, 1 - alpha / 2, N / 2
            gauss = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
            pref = (riesz_normalization(N, alpha) * sphere_surface(N - 1)
                    * beta_fn((N - 1) / 2, 0.5))
            assert np.allclose(kv, pref * r ** (alpha - N) * gauss, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("alpha", [1e-300, 0.5, 1.0, 1.5, 2.0, 2.5, 3 - 1e-9])
    def test_origin_is_the_far_field_power(self, alpha):
        # x = lo/hi = 0: F = 1 exactly, so K(0, s) = pref s^(alpha-3)
        s = np.array([1e-3, 0.7, 40.0])
        pref = riesz_normalization(3, alpha) * sphere_surface(2) * beta_fn(1.0, 0.5)
        assert np.array_equal(kernel_value(3, alpha, 0.0, s), pref * s ** (alpha - 3))

    def test_continuous_across_alpha_one(self):
        # N = 3, alpha = 1 is artanh(x)/x, its neighbours the expm1 quotient;
        # a change of 1e-9 in alpha moves K by at most ~1e-9 |log(r - s)|
        r = np.array([1.0, 1.0, 1.0, 1.0, 3.0])
        s = np.array([0.0, 0.3, 0.9, 1.0 - 1e-11, 3.0 * (1 + 1e-8)])
        k1 = kernel_value(3, 1.0, r, s)
        for alpha in (1 - 1e-9, 1 + 1e-9):
            assert np.all(np.abs(kernel_value(3, alpha, r, s) - k1) <= 1e-7 * k1)

    @pytest.mark.parametrize("alpha", [1e-300, 0.5, 1.0, 1.5, 3 - 1e-9])
    def test_box_edges_near_and_far(self, alpha):
        # the edges of the box, from the diagonal to the far field, where
        # log(1 - x) must come from log1p: 1 - x rounds away x's digits
        for x in (1 - 1e-11, 1 - 1e-6, 0.99, 0.5, 0.1, 1e-5, 1e-8, 0.0):
            exact = kernel_mpmath(3, alpha, 2.0, 2.0 * x)
            assert abs(kernel_value(3, alpha, 2.0, 2.0 * x) - exact) <= 1e-13 * abs(exact)

    def test_alpha_out_of_range(self):
        with pytest.raises(InvalidParameter):
            kernel_value(3, 3.5, 1.0, 2.0)
        with pytest.raises(InvalidParameter):
            kernel_value(3, 0.0, 1.0, 2.0)


@pytest.fixture(scope="module")
def ball_grid():
    return make_grid(3, 1.0, 800, 1.0)


@pytest.fixture(scope="module")
def ball_one(ball_grid):
    return RadialField.from_values(ball_grid, np.ones(ball_grid.n), origin=1.0)


class TestConvolve:
    def test_unit_ball_center(self, ball_grid, ball_one):
        D = convolve(ball_grid, ball_one, 2.0)
        assert abs(D.origin - 0.5) < 1e-6

    def test_unit_ball_outside(self, ball_grid, ball_one):
        val = potential_at(ball_grid, ball_one, 2.0, [2.0])[0]
        assert abs(val - 1.0 / 6.0) < 1e-6

    def test_zero_field(self, ball_grid):
        z = RadialField.from_values(ball_grid, np.zeros(ball_grid.n), origin=0.0)
        D = convolve(ball_grid, z, 2.0)
        assert np.all(D.values == 0.0)

    def test_grid_mismatch(self, ball_grid):
        other = make_grid(3, 1.0, 820, 1.0)
        f = RadialField.from_values(other, np.ones(other.n))
        with pytest.raises(IncompatibleGrid):
            convolve(ball_grid, f, 2.0)

    def test_positive_and_nonincreasing(self, grid3):
        g = RadialField.from_values(grid3, np.exp(-grid3.r ** 2))
        D = convolve(grid3, g, 2.0)
        assert np.all(D.values > 0)
        assert np.all(np.diff(D.values) <= 1e-12 * D.values.max())

    def test_newtonian_closed_form(self, grid3):
        # (I_2 * g)(r) = (1/r) int_0^r g s^2 ds + int_r^inf g s ds   (N=3)
        gvals = np.exp(-grid3.r ** 2) * (1 + 0.5 * grid3.r)
        g = RadialField.from_values(grid3, gvals)
        D = convolve(grid3, g, 2.0)
        gi = lambda s: np.exp(-s ** 2) * (1 + 0.5 * s)
        idx = np.linspace(30, grid3.n - 200, 12, dtype=int)
        for i in idx:
            r = grid3.r[i]
            inner, _ = quad(lambda s: gi(s) * s * s, 0, r)
            outer, _ = quad(lambda s: gi(s) * s, r, np.inf)
            exact = inner / r + outer
            assert abs(D.values[i] - exact) < 1e-6 * abs(exact)

    def test_leaves_the_table_cache_untouched(self):
        grid = make_grid(3, 25.0, 140, 2.0)
        g = RadialField.from_values(grid, np.exp(-grid.r ** 2), origin=1.0)
        cached = lambda: [(key, id(tab)) for key, tab in riesz._TABLE_CACHE.items()]
        before = cached()
        convolve(grid, g, 1.5)
        assert cached() == before


class TestPotentialNearPanelEnds:
    """Off-grid targets just inside or outside a panel end, where the graded
    sub-panels used to come so close to the target that 2F1 overflowed."""

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_finite_and_accurate(self, alpha):
        grid = make_grid(3, 25.0, 400, 2.0)
        g = RadialField.from_values(grid, np.exp(-grid.r ** 2), origin=1.0)
        ends = np.array([b for _, b, _ in grid.panels[1:-1]])
        ends = ends[(ends > grid.r[20]) & (ends < 0.8 * grid.r_max)][::8]
        offsets = [s * 10.0 ** k for k in range(-7, -2) for s in (-1, 1)]
        probes = np.outer(ends, 1 + np.array(offsets)).ravel()
        vals = potential_at(grid, g, alpha, probes)
        # I_alpha * exp(-r^2) in closed form (N = 3)
        exact = (gamma((3 - alpha) / 2) / (2 ** alpha * gamma(1.5))
                 * hyp1f1((3 - alpha) / 2, 1.5, -probes ** 2))
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals - exact) / exact) < 1e-3

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_a_probe_one_ulp_from_a_node(self, alpha):
        # node r[79] of this grid is 1.0000000000000002: a probe at 1.0 or one
        # ulp above it used to split r[79]'s panel there, leaving a piece whose
        # Gauss points round onto the probe, where the kernel is infinite
        grid = make_grid(3, 25, 400, 2)
        g = RadialField.from_values(grid, np.exp(-grid.r ** 2))
        probes = np.array([1.0, np.nextafter(grid.r[79], 2), grid.r[79]])
        vals = potential_at(grid, g, alpha, probes)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals - vals[-1])) <= 1e-12 * vals[-1]


class TestPotentialAt:
    """`potential_at` and `convolve` share one row builder."""

    @pytest.fixture(scope="class")
    def gauss(self):
        grid = make_grid(3, 25.0, 400, 2.0)
        return grid, RadialField.from_values(grid, np.exp(-grid.r ** 2), origin=1.0)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_matches_convolve_bit_for_bit(self, gauss, alpha):
        grid, g = gauss
        D = convolve(grid, g, alpha)
        assert potential_at(grid, g, alpha, [0.0])[0] == D.origin
        assert np.array_equal(potential_at(grid, g, alpha, grid.r), D.values)

    def test_origin_closed_form(self, gauss):
        # (I_alpha * exp(-r^2))(0) = Gamma((N-alpha)/2) / (2^alpha Gamma(N/2)); the
        # origin is integrated like any other target, near-panel rule included
        grid, g = gauss
        exact = gamma((3 - 0.5) / 2) / (2 ** 0.5 * gamma(1.5))
        assert abs(convolve(grid, g, 0.5).origin - exact) < 1e-3 * exact


class TestInteractionEnergy:
    def test_coulomb_ball_self_energy(self, ball_grid, ball_one):
        val = interaction_energy(ball_grid, ball_one, 1.0, 2.0)
        assert np.isclose(val, 8 * pi / 15, rtol=1e-9)

    def test_zero(self, ball_grid):
        z = RadialField.from_values(ball_grid, np.zeros(ball_grid.n), origin=0.0)
        assert interaction_energy(ball_grid, z, 1.0, 2.0) == 0.0

    @pytest.mark.parametrize("alpha", [2.0, 1.0])
    def test_hls_extremizer_saturation(self, grid3, alpha):
        h = hls_extremizer(grid3, alpha)
        val = interaction_energy(grid3, h, 1.0, alpha)
        pnorm = 2 * 3 / (3 + alpha)
        norm = integrate(grid3, h.values ** pnorm) ** (2 / pnorm)
        ratio = val / (interaction_bound_constant(3, alpha) * norm)
        assert abs(ratio - 1.0) < 0.01

    def test_bilinear_symmetry(self, grid3, rng):
        tab = kernel_table(grid3, 2.0)
        for _ in range(5):
            f = rng.random(grid3.n)
            g = rng.random(grid3.n)
            s1 = tab.bilinear(f, g)
            s2 = tab.bilinear(g, f)
            assert abs(s1 - s2) <= 1e-10 * abs(s1)

    def test_positivity(self, grid3, rng):
        u = RadialField.from_values(grid3, rng.random(grid3.n))
        assert interaction_energy(grid3, u, 2.0, 2.0) > 0

    def test_hls_bound_random_fields(self, grid3, rng):
        # inequality audit on smooth random bumps
        c_bound = interaction_bound_constant(3, 1.5)
        for _ in range(20):
            centers = rng.uniform(0, 8, 3)
            widths = rng.uniform(0.5, 3.0, 3)
            amps = rng.uniform(0.1, 2.0, 3)
            vals = sum(a * np.exp(-((grid3.r - c) / w) ** 2)
                       for a, c, w in zip(amps, centers, widths))
            u = RadialField.from_values(grid3, vals)
            lhs = interaction_energy(grid3, u, 1.0, 1.5)
            pnorm = 2 * 3 / (3 + 1.5)
            rhs = c_bound * integrate(grid3, vals ** pnorm) ** (2 / pnorm)
            assert lhs <= rhs * (1 + 1e-6)

    @given(N=st.integers(3, 5), frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_hls_bound_over_the_box(self, N, frac, seed):
        # the extremizer reaches the bound to quadrature accuracy; Gaussian
        # sums stay below it
        alpha = 0.01 + frac * (N - 0.02)
        grid = make_grid(N, 40.0, 300, 2.5)
        rng = np.random.default_rng(seed)
        fields = [hls_extremizer(grid, alpha).values]
        for _ in range(3):
            fields.append(sum(a * np.exp(-((grid.r - c) / w) ** 2) for a, c, w in
                              zip(rng.uniform(0.1, 2.0, 3), rng.uniform(0, 8, 3),
                                  rng.uniform(0.5, 3.0, 3))))
        c_bound = interaction_bound_constant(N, alpha)
        pnorm = 2 * N / (N + alpha)
        for vals in fields:
            lhs = interaction_energy(grid, RadialField.from_values(grid, vals), 1.0, alpha)
            rhs = c_bound * integrate(grid, vals ** pnorm) ** (2 / pnorm)
            assert lhs <= (1 + 1e-4) * rhs


def refined_pieces_oracle(a, b, sing):
    """Sub-intervals of [a, b] graded toward the endpoint `sing`, one panel at a
    time: the oracle of the batched `riesz._refined_pieces`."""
    L = b - a
    ks = [k for k in range(1, 14) if L * 0.25 ** k >= 1e-11 * abs(sing)]
    if sing <= a:
        pts = [a] + [a + L * 0.25 ** k for k in reversed(ks)] + [b]
    else:
        pts = [a] + [b - L * 0.25 ** k for k in ks] + [b]
    return [(lo, hi) for lo, hi in zip(pts[:-1], pts[1:]) if hi > lo]


def pair_pieces_oracle(t, a, b):
    """The graded pieces of panel [a, b] for target t, split at t inside it;
    a target within 1e-11 relative of an end counts as that end."""
    for end in (a, b):
        if abs(t - end) <= 1e-11 * abs(end):
            t = end
    if a < t < b:
        return refined_pieces_oracle(a, t, t) + refined_pieces_oracle(t, b, t)
    return refined_pieces_oracle(a, b, a if t <= a else b)


def panel_product_row_oracle(N, alpha, t, a, b, nodes):
    """int_a^b K(t, s) l_m(s) s^(N-1) ds for one (target, panel) pair: the
    oracle of the batched `riesz._panel_product_row`."""
    pieces = pair_pieces_oracle(t, a, b)
    xg, wg = np.polynomial.legendre.leggauss(8)
    xs = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * xg for lo, hi in pieces])
    ws = np.concatenate([0.5 * (hi - lo) * wg for lo, hi in pieces])
    K = kernel_value(N, alpha, t, xs)
    x0, x1, x2 = nodes
    l0 = (xs - x1) * (xs - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (xs - x0) * (xs - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (xs - x0) * (xs - x1) / ((x2 - x0) * (x2 - x1))
    base = K * xs ** (N - 1) * ws
    return np.array([np.dot(base, l0), np.dot(base, l1), np.dot(base, l2)])


def rows_oracle(grid, alpha, targets):
    """Quadrature rows assembled one (target, near panel) pair at a time: the
    oracle of the blocked `riesz._rows`."""
    t = np.asarray(targets, dtype=float)
    far = kernel_value(grid.N, alpha, t[:, None], grid.r[None, :])
    far[np.isclose(grid.r[None, :], t[:, None], atol=0.0)] = 0.0
    rows = far * grid.w
    for k, tk in enumerate(t):
        for i, (a, b, idx) in enumerate(grid.panels):
            width = b - a
            near = tk <= grid.r[2] if i == 0 else a - width <= tk <= b + width
            if not near:
                continue
            cor = panel_product_row_oracle(grid.N, alpha, tk, a, b, tuple(grid.r[list(idx)]))
            for m, j in enumerate(idx):
                rows[k, j] += cor[m] - far[k, j] * grid.panel_weights[i][m]
    return rows


def assert_close_to_max(new, ref, name=""):
    assert np.abs(new - ref).max() <= 1e-14 * np.abs(ref).max(), name


class TestBatchedNearRows:
    """The blocked, batched near-diagonal product integration against the
    per-pair scalar oracle above."""

    def test_pieces_match_the_oracle_exactly(self):
        grid = make_grid(3, 25.0, 120, 2.0)
        pairs = []
        for a, b, _ in (grid.panels[0], grid.panels[1], grid.panels[40], grid.panels[-1]):
            w = b - a
            # r = 0, both ends, inside, outside, and near enough to an end
            # that the grading stops after some cuts or before the first
            for t in (0.0, a, b, 0.5 * (a + b), a - w, b + w, a * (1 + 1e-6),
                      b * (1 - 1e-6), a + 1e-13 * b, b * (1 - 1e-13),
                      b * (1 + 1e-13), a * (1 - 1e-12)):
                pairs.append((t, a, b))
        lo, hi = riesz._refined_pieces(*np.array(pairs).T)
        for k, (t, a, b) in enumerate(pairs):
            got = [(x, y) for x, y in zip(lo[k], hi[k]) if y > x]
            assert got == pair_pieces_oracle(t, a, b), (t, a, b)

    @pytest.mark.parametrize("N,alpha", [(N, alpha) for N in (3, 4, 5)
                                         for alpha in (0.3, 0.5, 1.0, 1.5, 2.0, 2.7)])
    def test_table_matches_the_oracle(self, N, alpha):
        grid = make_grid(N, 25.0, 120, 2.0)
        tab = riesz._build_table(grid, alpha)
        M = rows_oracle(grid, alpha, grid.r)
        WM = grid.weights_full[:, None] * M
        assert_close_to_max(riesz._rows(grid, alpha, grid.r), M, name="M")
        assert_close_to_max(tab.G, 0.5 * (WM + WM.T), name="G")
        assert_close_to_max(riesz._rows(grid, alpha, [0.0])[0],
                            rows_oracle(grid, alpha, [0.0])[0], name="origin")
        assert np.array_equal(tab.G, tab.G.T)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_potential_at_matches_the_oracle_rows(self, alpha):
        # TestPotentialNearPanelEnds' probes, a relative 1e-7 to 1e-3 off panel ends
        grid = make_grid(3, 25.0, 400, 2.0)
        g = RadialField.from_values(grid, np.exp(-grid.r ** 2), origin=1.0)
        ends = np.array([b for _, b, _ in grid.panels[1:-1]])
        ends = ends[(ends > grid.r[20]) & (ends < 0.8 * grid.r_max)][::8]
        offsets = [s * 10.0 ** k for k in range(-7, -2) for s in (-1, 1)]
        probes = np.outer(ends, 1 + np.array(offsets)).ravel()
        rows = rows_oracle(grid, alpha, probes)
        assert_close_to_max(riesz._rows(grid, alpha, probes), rows)
        assert_close_to_max(potential_at(grid, g, alpha, probes), rows @ g.values)

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_block_size_changes_no_row(self, monkeypatch, block, alpha):
        # only the connection series of N >= 4, truncated at the largest 1 - z
        # of the block, depends on the blocks; the direct branch (alpha = 1)
        # does not
        grid = make_grid(4, 25.0, 120, 2.0)
        targets = np.append(grid.r, [0.0, 30.0])
        rows = riesz._rows(grid, alpha, targets)
        monkeypatch.setattr(riesz, "_BLOCK", block)
        blocked = riesz._rows(grid, alpha, targets)
        if alpha == 1.0:
            assert np.array_equal(blocked, rows)
        scale = np.abs(rows).max(axis=1, keepdims=True)
        assert np.all(np.abs(blocked - rows) <= 1e-15 * scale)

    def test_build_peaks_at_two_tables(self):
        # G is symmetrized in place, _BLOCK rows at a time
        grid = make_grid(3, 40.0, 1000, 2.5)
        tracemalloc.start()
        try:
            riesz._build_table(grid, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * grid.n ** 2

    def test_build_peaks_at_three_tables(self):
        # no transposed copy of G: the per-block temporaries are O(n) rows,
        # not n x n
        grid = make_grid(3, 40.0, 1000, 2.5)
        tracemalloc.start()
        try:
            riesz._build_table(grid, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * grid.n ** 2

    def test_build_peaks_at_one_table(self):
        # the rows turn into G in place, weighted and then symmetrized
        # _BLOCK rows at a time: beyond G the build holds only per-block
        # temporaries, about 11 arrays of _BLOCK rows
        n = 1000
        grid = make_grid(3, 40.0, n, 2.5)
        tracemalloc.start()
        try:
            riesz._build_table(grid, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n ** 2 + 16 * 8 * riesz._BLOCK * n

    @pytest.mark.parametrize("N,alpha", [(3, 1.0), (4, 1.5), (5, 4.5)])
    def test_table_holds_one_array(self, N, alpha):
        grid = make_grid(N, 25.0, 120, 2.0)
        tab = riesz._build_table(grid, alpha)
        arrays = [v for v in vars(tab).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == 8 * grid.n ** 2


class TestKernelTable:
    def test_cache_reuse(self, ball_grid):
        assert kernel_table(ball_grid, 2.0) is kernel_table(ball_grid, 2.0)

    def test_equal_grids_share_a_table(self):
        a, b = make_grid(3, 2.0, 300, 1.5), make_grid(3, 2.0, 300, 1.5)
        assert a is not b
        assert kernel_table(a, 2.0) is kernel_table(b, 2.0)

    def test_cache_keeps_the_most_recently_used(self):
        grids = [make_grid(3, 2.0, 20 + k, 1.5) for k in range(riesz._CACHED_TABLES + 3)]
        first = kernel_table(grids[0], 2.0)
        for g in grids[1:]:
            kernel_table(g, 2.0)
            assert kernel_table(grids[0], 2.0) is first     # used last, so kept
        assert len(riesz._TABLE_CACHE) <= riesz._CACHED_TABLES
        keys = list(riesz._TABLE_CACHE)
        assert keys[-1] == (grids[0].key, 2.0)
        assert (grids[1].key, 2.0) not in riesz._TABLE_CACHE


def positive_field(grid):
    """A positive field like the u^p the solvers apply G to, with a bump off
    the origin."""
    return np.exp(-grid.r ** 2) + 0.3 * np.exp(-(grid.r - 5.0) ** 2)


def assert_same_product(tab, x):
    """apply(x) equals G @ x up to the rounding of a length-n dot product,
    n eps (|G| |x|) in each entry: the two sum in different orders."""
    bound = x.size * np.finfo(float).eps * (np.abs(tab.G) @ np.abs(x))
    assert np.all(np.abs(tab.apply(x) - tab.G @ x) <= bound)


class TestApply:
    """`RieszKernelTable.apply`, the one product with G: BLAS dsymv on one
    triangle of the symmetric table."""

    @pytest.mark.parametrize("N,alpha", [(N, alpha) for N in (3, 4, 5)
                                         for alpha in (0.3, 0.5, 1.0, 1.5, 2.0, N - 0.5)])
    def test_matches_the_dense_product(self, N, alpha):
        grid = make_grid(N, 25.0, 400, 2.0)
        tab = riesz._build_table(grid, alpha)
        for x in (positive_field(grid), np.random.default_rng(7).standard_normal(grid.n)):
            assert_same_product(tab, x)
        x = positive_field(grid)
        assert tab.bilinear(x, x) == float(x @ tab.apply(x))

    def test_makes_no_copy_of_the_table(self, grid3_table2):
        # f2py copies a C-ordered matrix argument, n^2 doubles, without a word
        x = positive_field(grid3_table2.grid)
        grid3_table2.apply(x)
        tracemalloc.start()
        try:
            grid3_table2.apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * x.size


@st.composite
def table_configs(draw):
    """(N, alpha, n) over N = 3-5, alpha in (0, N) with integer alpha and
    alpha near 0 and near N, and small grids."""
    N = draw(st.integers(3, 5))
    alpha = draw(st.one_of(
        st.floats(1e-3, float(N), exclude_max=True),
        st.integers(1, N - 1).map(float),
        st.sampled_from([1e-3, 1e-2, N - 1e-2, N - 1e-3])))
    return N, alpha, draw(st.integers(16, 60))


class TestTableProperties:
    """Over the admissible box: G is exactly symmetric, so the bilinear form
    is symmetric to rounding and `apply` is the dense product.  (G is not
    asserted positive: small graded grids give it tiny negative entries at
    small alpha and tiny negative eigenvalues at large alpha.)"""

    @given(config=table_configs(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_pairing(self, config, seed):
        N, alpha, n = config
        grid = make_grid(N, 25.0, n, 2.0)
        tab = riesz._build_table(grid, alpha)
        assert np.array_equal(tab.G, tab.G.T)
        f, g = np.random.default_rng(seed).random((2, n))
        s1, s2 = tab.bilinear(f, g), tab.bilinear(g, f)
        assert abs(s1 - s2) <= 1e-14 * abs(s1)
        assert_same_product(tab, g)


class TestTableAgainstDirectKernel:
    """Tables from `kernel_value` against tables whose every kernel value
    comes from scipy's hyp2f1 (`kernel_direct` patched in)."""

    @pytest.fixture(scope="class")
    def grid(self):
        return make_grid(3, 25.0, 120, 2.0)

    @staticmethod
    def arrays(grid, alpha):
        return {"M": riesz._rows(grid, alpha, grid.r),
                "G": riesz._build_table(grid, alpha).G,
                "origin_row": riesz._rows(grid, alpha, [0.0])[0]}

    def tables(self, grid, alpha):
        new = self.arrays(grid, alpha)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(riesz, "kernel_value", kernel_direct)
            old = self.arrays(grid, alpha)
        return new, old

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5])
    def test_connection_branch_agrees(self, grid, alpha):
        # each array at its own scale: G carries the quadrature weights.  At
        # alpha = 0.5 the difference is hyp2f1's rounding of z near 1 (~1e-10);
        # alpha = 1, where hyp2f1 rounds less, meets a bound of 1e-12
        new, old = self.tables(grid, alpha)
        bound = 1e-12 if alpha == 1.0 else 1e-9
        for name in ("M", "G", "origin_row"):
            a, b = new[name], old[name]
            assert np.abs(a - b).max() <= bound * np.abs(b).max(), name

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_direct_branch_bit_identical(self, alpha):
        # N >= 4 keeps hyp2f1 at alpha = 1; every N keeps F = 1 at alpha = 2
        new, old = self.tables(make_grid(4 if alpha == 1.0 else 3, 25.0, 120, 2.0), alpha)
        for name in ("M", "G", "origin_row"):
            assert np.array_equal(new[name], old[name]), name

import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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
from dense_oracle import compress, dense_table
from dense_oracle import rows as dense_rows


def kernel_bruteforce(N, alpha, r, s):
    """Independent oracle: direct theta-quadrature of the sphere average."""
    f = lambda t: np.sin(t) ** (N - 2) * (r * r + s * s - 2 * r * s * np.cos(t)) ** (-(N - alpha) / 2)
    val, _ = quad(f, 0, pi, limit=200)
    surf = 2 * pi ** ((N - 1) / 2) / gamma((N - 1) / 2)
    return riesz_normalization(N, alpha) * surf * val


def kernel_direct(N, alpha, r, s):
    """Reference: the kernel with scipy's hyp2f1 at every point (no connection
    branch), written as `kernel_value` was before it had one."""
    pref = riesz_normalization(N, alpha) * sphere_surface(N)
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


def kernel_direct_into(N, alpha, r, s, out, *work):
    """`kernel_direct` in the form of `riesz._kernel`, which `kernel_value`
    and the table's samples call."""
    out[...] = kernel_direct(N, alpha, r, s)
    return out


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
    @example(point=(4, 1e-20, 1.7, 1.7 * (1 - 1e-9)))   # alpha - 1 rounds to -1
    @example(point=(5, 4.0, 1.7, 1.7 * (1 - 1e-9)))     # 1/Gamma(b) = 0
    @example(point=(4, 3.0, 1.7, 1.7 * (1 - 1e-11)))
    @settings(max_examples=300, deadline=None)
    def test_against_mpmath(self, point):
        # N = 3, the closed form, and N >= 4, the connection branch, to 1e-13
        # all the way to the diagonal, at every alpha, integers included; at
        # z <= 1/2 (N >= 4) kernel_value is the direct hyp2f1 call, bit for
        # bit, on an array (kernel_value takes numpy's array loops for a
        # number too, whose power can differ from its scalar power by an ulp)
        N, alpha, hi, lo = point
        kv = kernel_value(N, alpha, hi, lo)
        if N > 3 and (lo / hi) ** 2 <= 0.5:
            assert kv == kernel_direct(N, alpha, [hi], [lo])[0]
        exact = kernel_mpmath(N, alpha, hi, lo)
        assert abs(kv - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5, 3.0, 3.5])
    def test_coincident_points(self, alpha):
        # +inf for alpha <= 1, Gauss's value of 2F1 at z = 1 otherwise, at
        # N = 3-5; any RuntimeWarning fails the test (pyproject.toml)
        r = np.array([0.3, 1.0, 7.5])
        for N in range(max(3, int(alpha) + 1), 6):
            kv = kernel_value(N, alpha, r, r)
            if alpha <= 1:
                assert np.all(kv == np.inf), N
            else:
                a, b, c = (N - alpha) / 2, 1 - alpha / 2, N / 2
                gauss = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
                pref = riesz_normalization(N, alpha) * sphere_surface(N)
                assert np.allclose(kv, pref * r ** (alpha - N) * gauss, rtol=1e-14, atol=0), N

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 2.5])
    def test_both_points_at_the_origin(self, N, alpha):
        # |x - y|^(alpha-N) is +inf at x = y = 0; the power 0^(alpha-N)
        # raised a RuntimeWarning first
        assert kernel_value(N, alpha, 0.0, 0.0) == np.inf

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_diagonal_at_the_smallest_alpha(self, N):
        # A_alpha |S^(N-1)| underflows to 0 at alpha = 5e-324, and 0 * inf
        # made the diagonal NaN with a RuntimeWarning
        kv = kernel_value(N, 5e-324, [1.0, 1.0, 0.0, 2.0], [0.999, 1.0, 0.0, 1.0])
        assert kv[1] == kv[2] == np.inf
        assert 0.0 <= kv[0] < np.inf and 0.0 <= kv[3] < np.inf

    @pytest.mark.parametrize("alpha", [1e-300, 0.5, 1.0, 1.5, 2.0, 2.5, 3 - 1e-9])
    def test_origin_is_the_far_field_power(self, alpha):
        # x = lo/hi = 0: F = 1 exactly, so K(0, s) = pref s^(alpha-3)
        s = np.array([1e-3, 0.7, 40.0])
        pref = riesz_normalization(3, alpha) * sphere_surface(3)
        assert np.array_equal(kernel_value(3, alpha, 0.0, s), pref * s ** (alpha - 3))

    def test_prefactor_is_the_sphere_area(self):
        # the angular integral |S^(N-2)| B((N-1)/2, 1/2) of the average is |S^(N-1)|
        for N in range(3, 8):
            for alpha in (0.5, 1.5, 2.5):
                textbook = (riesz_normalization(N, alpha) * sphere_surface(N - 1)
                            * beta_fn((N - 1) / 2, 0.5))
                pref = riesz._kernel_constants(N, alpha).pref
                assert abs(pref - textbook) <= 1e-15 * textbook, (N, alpha)

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

    @pytest.mark.parametrize("N", [2, 4.5])
    def test_dimension_must_be_an_integer_above_two(self, N):
        # N = 2 returned 1.505 and N = 4.5 returned 0.0591
        with pytest.raises(InvalidParameter):
            kernel_value(N, 1.5, 1.0, 2.0)


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

    def test_potential_at_grid_mismatch(self):
        # same n, other r_max: read on the wrong nodes, this Gaussian's
        # potential at r = 1 came out 0.199 against 0.304 on its own grid
        own, other = make_grid(3, 30.0, 400, 2.0), make_grid(3, 25.0, 400, 2.0)
        f = RadialField.from_values(own, np.exp(-own.r ** 2))
        with pytest.raises(IncompatibleGrid):
            potential_at(other, f, 1.0, [1.0])

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
        ends = grid.panels.b[1:-1]
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


def gauss_field(N, n):
    grid = make_grid(N, 25.0, n, 2.0)
    return grid, RadialField.from_values(grid, np.exp(-grid.r ** 2), origin=1.0)


class TestPotentialAt:
    """`potential_at` and `convolve` share one blocked accumulation."""

    @pytest.fixture(scope="class")
    def gauss(self):
        return gauss_field(3, 400)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_matches_convolve_bit_for_bit(self, gauss, alpha):
        for grid, g in (gauss, gauss_field(4, 150)):
            D = convolve(grid, g, alpha)
            assert potential_at(grid, g, alpha, [0.0])[0] == D.origin
            assert np.array_equal(potential_at(grid, g, alpha, grid.r), D.values)

    @pytest.mark.parametrize("radii", [[-1.0], [1.0, np.nan], [np.inf], [[1.0, 2.0]], -0.5],
                             ids=["negative", "nan", "inf", "2-D", "negative-number"])
    def test_rejects_radii_that_are_not_a_list_of_radii(self, gauss, radii):
        # a negative or NaN radius used to come back as NaN, and 2-D input
        # ended in a numpy broadcast error
        grid, g = gauss
        with pytest.raises(InvalidParameter):
            potential_at(grid, g, 1.5, radii)

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_matches_the_rows(self, monkeypatch, N, alpha, block):
        # the blocked accumulation sums each row in another order than
        # `dense_rows(...) @ g`, so the two agree to roundoff, block size aside
        grid, g = gauss_field(N, 2 * riesz._BLOCK + 7)
        ref = dense_rows(grid, alpha, grid.r) @ g.values
        ref0 = dense_rows(grid, alpha, [0.0])[0] @ g.values
        monkeypatch.setattr(riesz, "_BLOCK", block)
        D = convolve(grid, g, alpha)
        assert np.all(np.abs(D.values - ref) <= 1e-15 * np.abs(ref).max())
        assert abs(D.origin - ref0) <= 1e-15 * abs(ref0)

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


def near_pairs(grid, targets):
    """(k, i, t, a, b, nodes) for every target k and panel i of its near-diagonal
    product integration: the head panel for targets up to r[2], every other
    panel within one panel width of the target."""
    for k, tk in enumerate(np.asarray(targets, dtype=float)):
        for i, (a, b, idx) in enumerate(zip(*grid.panels)):
            width = b - a
            if (tk <= grid.r[2]) if i == 0 else (a - width <= tk <= b + width):
                yield k, i, tk, a, b, tuple(grid.r[idx])


def rows_oracle(grid, alpha, targets, pair_row=panel_product_row_oracle):
    """Quadrature rows assembled one (target, near panel) pair at a time from
    `pair_row`: the oracle of the blocked `dense_rows`."""
    t = np.asarray(targets, dtype=float)
    far = kernel_value(grid.N, alpha, t[:, None], grid.r[None, :])
    far[np.isclose(grid.r[None, :], t[:, None], atol=0.0)] = 0.0
    rows = far * grid.w
    for k, i, tk, a, b, nodes in near_pairs(grid, t):
        cor = pair_row(grid.N, alpha, tk, a, b, nodes)
        for m, j in enumerate(grid.panels.nodes[i]):
            rows[k, j] += cor[m] - far[k, j] * grid.panel_weights[i][m]
    return rows


def shell_pref_mpmath(alpha):
    """A_alpha(3) |S^1| B(1, 1/2) = 4 pi A_alpha(3) from the binary alpha."""
    al = mpmath.mpf(float(alpha))
    return (4 * mpmath.pi * mpmath.gamma((3 - al) / 2)
            / (mpmath.gamma(al / 2) * mpmath.pi ** 1.5 * 2 ** al))


@lru_cache(maxsize=None)
def shell_row_mpmath(N, alpha, t, a, b, nodes):
    """int_a^b K(t, s) l_m(s) s^2 ds for one N = 3 pair, at 50 digits from the
    exact binary inputs: K s^2 l_m = (pref / 2t) [(t+s)^eps - |t-s|^eps] / eps
    s l_m(s), eps = alpha - 1, with the cubic s l_m(s) expanded about s = -t and
    s = t and each power integrated exactly (the logarithm at eps = 0); at t = 0,
    pref s^eps l_m(s).  It takes no scaling by t, Gauss rule or series from
    `riesz._panel_product_row`; 50 digits absorb the cancellation between the
    two powers."""
    assert N == 3
    with mpmath.workdps(50):
        al, t, a, b = (mpmath.mpf(float(v)) for v in (alpha, t, a, b))
        xs = [mpmath.mpf(float(v)) for v in nodes]
        eps, pref = al - 1, shell_pref_mpmath(alpha)
        E = lambda y: mpmath.log(y) if eps == 0 else (y ** eps - 1) / eps
        # int_0^W w^k E(|w|) dw, W signed
        prim = lambda W, k: (W ** (k + 1) * (E(abs(W)) - mpmath.mpf(1) / (k + 1)) / (k + 1 + eps)
                             if W != 0 else mpmath.mpf(0))
        out = []
        for m in range(3):
            i, j = [n for n in range(3) if n != m]
            D = (xs[m] - xs[i]) * (xs[m] - xs[j])
            if t == 0:
                c = [xs[i] * xs[j], -(xs[i] + xs[j]), 1]
                out.append(pref * sum(c[k] * (b ** (eps + k + 1) - a ** (eps + k + 1))
                                      / (eps + k + 1) for k in range(3)) / D)
                continue
            val = 0
            for c0, sign in ((t, 1), (-t, -1)):
                # s l_m(s) = (w - c0)(w - c0 - x_i)(w - c0 - x_j) in w = s + c0
                r0, r1, r2 = -c0, -c0 - xs[i], -c0 - xs[j]
                cf = [r0 * r1 * r2, r0 * r1 + r0 * r2 + r1 * r2, r0 + r1 + r2, 1]
                val += sign * sum(cf[k] * (prim(b + c0, k) - prim(a + c0, k)) for k in range(4))
            out.append(pref / (2 * t) * val / D)
        return np.array([float(v) for v in out])


def shell_row_quadrature(alpha, t, a, b, nodes):
    """The same integrals by tanh-sinh quadrature at 30 digits, for t > 0: the
    panel split at t and u = |s - t| formed exactly, and on each side
    int_0^U u^(alpha-1) f(u) du = U^alpha / alpha int_0^1 f(U v^(1/alpha)) dv, or
    a log weight at alpha = 1."""
    with mpmath.workdps(30):
        al, t, a, b = (mpmath.mpf(float(v)) for v in (alpha, t, a, b))
        xs = [mpmath.mpf(float(v)) for v in nodes]
        eps = al - 1
        out = []
        for m in range(3):
            i, j = [n for n in range(3) if n != m]
            l = lambda s: (s - xs[i]) * (s - xs[j]) / ((xs[m] - xs[i]) * (xs[m] - xs[j]))
            reg = mpmath.quad(lambda s: (mpmath.log(t + s) if eps == 0 else (t + s) ** eps)
                              * s * l(s), [a, b])
            sing = 0
            for lo, hi, side in ((a, min(b, t), -1), (max(a, t), b, 1)):
                if hi <= lo:
                    continue
                f = lambda u: (t + side * u) * l(t + side * u)
                u0, u1 = sorted((abs(lo - t), abs(hi - t)))
                if eps == 0:
                    sing += mpmath.quad(lambda u: mpmath.log(u) * f(u), [u0, u1])
                else:
                    G = lambda U: (U ** al / al * mpmath.quad(lambda v: f(U * v ** (1 / al)), [0, 1])
                                   if U > 0 else 0)
                    sing += G(u1) - G(u0)
            out.append(shell_pref_mpmath(alpha) / (2 * t) * (reg - sing) / (eps or 1))
        return np.array([float(v) for v in out])


def shell_tol(alpha):
    """Bound on a closed-form N = 3 pair, relative to its largest entry."""
    return 1e-12 if alpha >= 0.3 else 1e-11


def assert_shell_rows(grid, alpha, targets):
    """`riesz._panel_product_row` on every near pair of the targets within
    shell_tol of `shell_row_mpmath`, and each row of `dense_rows` within the
    sum of its pairs' bounds, plus assembly rounding, of the row assembled from
    the reference; returns the reference rows and their bounds."""
    pairs = list(near_pairs(grid, targets))
    t, a, b, nodes = (np.array(v) for v in zip(*(p[2:] for p in pairs)))
    got = riesz._panel_product_row(3, alpha, t, a, b, nodes)
    ref = np.array([shell_row_mpmath(3, alpha, *p[2:]) for p in pairs])
    scale = np.abs(ref).max(axis=1)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - ref) <= shell_tol(alpha) * scale[:, None])
    rows = rows_oracle(grid, alpha, targets, pair_row=shell_row_mpmath)
    bound = 1e-14 * np.abs(rows).max(axis=1)
    np.add.at(bound, [p[0] for p in pairs], shell_tol(alpha) * scale)
    assert np.all(np.abs(dense_rows(grid, alpha, targets) - rows) <= bound[:, None])
    return rows, bound


def assert_close_to_max(new, ref, name=""):
    assert np.abs(new - ref).max() <= 1e-14 * np.abs(ref).max(), name


class TestBatchedNearRows:
    """The blocked, batched near-diagonal product integration against the
    per-pair scalar oracle above."""

    def test_pieces_match_the_oracle_exactly(self):
        grid = make_grid(3, 25.0, 120, 2.0)
        pairs = []
        for a, b in zip(grid.panels.a[[0, 1, 40, -1]], grid.panels.b[[0, 1, 40, -1]]):
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

    @pytest.mark.parametrize("N,alpha", [(3, alpha) for alpha in (0.02, 0.1, 0.3, 0.5, 1.0,
                                                                  1.5, 2.0, 2.7)]
                             + [(N, alpha) for N in (4, 5)
                                for alpha in (0.3, 0.5, 1.0, 1.5, 2.0, 2.7)])
    def test_table_matches_the_oracle(self, N, alpha):
        # N = 3: every pair against the 50-digit closed form; N >= 4: the
        # graded Gauss rule pair by pair
        grid = make_grid(N, 25.0, 120, 2.0)
        G = dense_table(grid, alpha)
        if N == 3:
            M = assert_shell_rows(grid, alpha, np.append(grid.r, 0.0))[0][:-1]
        else:
            M = rows_oracle(grid, alpha, grid.r)
            assert_close_to_max(dense_rows(grid, alpha, grid.r), M, name="M")
            assert_close_to_max(dense_rows(grid, alpha, [0.0])[0],
                                rows_oracle(grid, alpha, [0.0])[0], name="origin")
        WM = grid.weights_full[:, None] * M
        assert_close_to_max(G, 0.5 * (WM + WM.T), name="G")
        assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("alpha", [0.02, 0.1, 0.5, 1.5])
    def test_potential_at_matches_the_oracle_rows(self, alpha):
        # TestPotentialNearPanelEnds' probes, a relative 1e-7 to 1e-3 off panel ends
        grid = make_grid(3, 25.0, 400, 2.0)
        g = RadialField.from_values(grid, np.exp(-grid.r ** 2), origin=1.0)
        ends = grid.panels.b[1:-1]
        ends = ends[(ends > grid.r[20]) & (ends < 0.8 * grid.r_max)][::8]
        offsets = [s * 10.0 ** k for k in range(-7, -2) for s in (-1, 1)]
        probes = np.outer(ends, 1 + np.array(offsets)).ravel()
        rows, bound = assert_shell_rows(grid, alpha, probes)
        assert np.all(np.abs(potential_at(grid, g, alpha, probes) - rows @ g.values)
                      <= bound * np.abs(g.values).sum())

    def test_the_reference_matches_quadrature(self):
        # the closed-form reference against tanh-sinh quadrature with u formed
        # exactly, on pairs from r[1] 1e-9 to a probe one ulp off a node
        grid = make_grid(3, 25.0, 400, 2.0)
        targets = [grid.r[1] * 1e-9, grid.r[1] * 0.5, np.nextafter(grid.r[79], 2), 7.3]
        pairs = [p[2:] for p in near_pairs(grid, targets)][::2]
        for alpha in (0.02, 1.0, 2.5):
            for pair in pairs:
                ref = shell_row_mpmath(3, alpha, *pair)
                quadrature = shell_row_quadrature(alpha, *pair)
                assert np.abs(ref - quadrature).max() <= 1e-14 * np.abs(ref).max(), (alpha, pair)

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_block_size_changes_no_row(self, monkeypatch, block, alpha):
        # every kernel value depends on its own point alone (the N >= 4
        # connection series sums all its terms), and the N = 3 node rows are
        # sampled on one triangle and mirrored across the block edges
        grid = make_grid(4, 25.0, 120, 2.0)
        targets = np.append(grid.r, [0.0, 30.0])
        grid3 = make_grid(3, 25.0, 120, 2.0)
        rows, nodes = dense_rows(grid, alpha, targets), dense_rows(grid3, alpha, grid3.r)
        monkeypatch.setattr(riesz, "_BLOCK", block)
        assert np.array_equal(dense_rows(grid3, alpha, grid3.r), nodes)
        assert np.array_equal(dense_rows(grid, alpha, targets), rows)

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_node_rows_match_the_per_target_rows(self, N, alpha):
        # the rows at the nodes sample one triangle and mirror it, and batch
        # the near corrections; built one target at a time, every sample and
        # correction must come out the same bits
        grid = make_grid(N, 25.0, 2 * riesz._BLOCK + 7, 2.0)
        single = np.vstack([dense_rows(grid, alpha, [t]) for t in grid.r])
        assert np.array_equal(dense_rows(grid, alpha, grid.r), single)

    @pytest.mark.parametrize("N", [3, 4])
    def test_targets_with_no_near_panel(self, N):
        # beyond every panel's reach a row is the weighted kernel samples alone
        grid = make_grid(N, 25.0, 120, 2.0)
        targets = np.array([60.0, 80.0])
        expected = kernel_value(N, 1.5, targets[:, None], grid.r[None, :]) * grid.w
        assert np.array_equal(dense_rows(grid, 1.5, targets), expected)

    def test_build_peaks_at_two_tables(self):
        # the build never holds G whole, so it stays well under two tables
        grid = make_grid(3, 40.0, 1000, 2.5)
        tracemalloc.start()
        try:
            riesz._build_table(grid, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * grid.n ** 2

    def test_build_peaks_at_three_tables(self):
        # no transposed copy of G or of a block: the per-block temporaries
        # are O(n) rows, not n x n
        grid = make_grid(3, 40.0, 1000, 2.5)
        tracemalloc.start()
        try:
            riesz._build_table(grid, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * grid.n ** 2

    def test_build_peaks_at_one_table(self):
        # beyond the largest block, a quarter of G, the build holds only a
        # workspace of _BLOCK rows and per-block temporaries, which sum to
        # less than one table plus 16 arrays of _BLOCK rows
        n = 1000
        grid = make_grid(3, 40.0, n, 2.5)
        tracemalloc.start()
        try:
            riesz._build_table(grid, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n ** 2 + 16 * 8 * riesz._BLOCK * n

    def test_build_holds_one_block_of_G(self):
        # each block is formed and compressed before the next: beyond the
        # largest block, (n/2)^2 entries, the build holds only a workspace of
        # 4 arrays of _BLOCK n/2 entries and per-block temporaries
        n = 2000
        grid = make_grid(3, 40.0, n, 2.5)
        tracemalloc.start()
        try:
            riesz._build_table(grid, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n // 2) ** 2 + 16 * 8 * riesz._BLOCK * n

    @staticmethod
    def potential_peak(apply):
        n = 1000
        grid = make_grid(3, 40.0, n, 2.5)
        g = RadialField.from_values(grid, np.exp(-grid.r ** 2), origin=1.0)
        tracemalloc.start()
        try:
            apply(grid, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, n

    def test_convolve_peaks_at_one_table(self):
        # no n x n rows: they are applied to g one block of _BLOCK targets at
        # a time, so beyond O(n) vectors convolve holds only per-block
        # temporaries, about 6 arrays of _BLOCK rows
        peak, n = self.potential_peak(lambda grid, g: convolve(grid, g, 1.0))
        assert peak < 16 * 8 * riesz._BLOCK * n

    def test_potential_at_holds_no_rows(self):
        # 2n probes: no 2n x n rows either
        peak, n = self.potential_peak(
            lambda grid, g: potential_at(grid, g, 1.0, np.linspace(0.0, 45.0, 2 * grid.n)))
        assert peak < 16 * 8 * riesz._BLOCK * n

    @pytest.mark.parametrize("N,alpha", [(3, 1.0), (4, 1.5), (5, 4.5)])
    def test_table_holds_one_array(self, N, alpha):
        # n <= _LEAF: a hierarchy of depth 0, its one leaf G itself
        grid = make_grid(N, 25.0, 120, 2.0)
        tab = riesz._build_table(grid, alpha)
        assert tab.factors == ()
        assert np.array_equal(tab.leaves[0], dense_table(grid, alpha))

    @pytest.mark.parametrize("N,alpha,n", [(3, 0.1, 1000), (3, 1.0, 1000), (3, 2.0, 1000),
                                           (3, 1.0, 120), (3, 2.0, 1100), (4, 0.3, 400),
                                           (4, 1.5, 400), (4, 1.0, 1100), (5, 0.5, 400),
                                           (5, 4.5, 400)])
    def test_block_build_is_the_compressed_oracle(self, N, alpha, n):
        # each block from its own kernel samples and near-panel swaps: the
        # same bits as the dense G compressed block by block, on threshold's
        # grid (n = 1000), a depth-0 grid (n = 120) and one padded to whole
        # leaves (n = 1100, to 1104)
        r_max, grading = {120: (25.0, 2.0), **APPLY_GRIDS}[n]
        grid = make_grid(N, r_max, n, grading)
        tab = riesz._build_table(grid, alpha)
        leaves, factors = compress(dense_table(grid, alpha))
        assert np.array_equal(tab.leaves, leaves)
        assert len(tab.factors) == len(factors)
        for F, ref in zip(tab.factors, factors):
            assert np.array_equal(F, ref)

    def test_compressed_table_holds_a_fifth_of_G(self):
        # threshold's grid: the leaves are an eighth of G, the factors of
        # rank about 20 less than a sixteenth
        grid = make_grid(3, 40.0, 1000, 2.5)
        tab = riesz._build_table(grid, 1.0)
        nbytes = tab.leaves.nbytes + sum(F.nbytes for F in tab.factors)
        assert nbytes < 8 * grid.n ** 2 / 5


class TestExactShellRows:
    """N = 3 near rows by exact moments: at small alpha, at the edges of the
    admissible alpha, and at targets on, next to and far inside the panels."""

    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_gaussian_potential_at_small_alpha(self, alpha):
        # I_alpha * exp(-r^2) in closed form over r[20] < r < 0.8 r_max; the
        # graded Gauss rule missed it by 7.8e-2 (alpha = 0.1) and 3.9e-4 (0.3)
        grid = make_grid(3, 25.0, 400, 2.0)
        g = RadialField.from_values(grid, np.exp(-grid.r ** 2), origin=1.0)
        window = (grid.r > grid.r[20]) & (grid.r < 0.8 * grid.r_max)
        r = grid.r[window]
        exact = (gamma((3 - alpha) / 2) / (2 ** alpha * gamma(1.5))
                 * hyp1f1((3 - alpha) / 2, 1.5, -r ** 2))
        vals = convolve(grid, g, alpha).values[window]
        assert np.max(np.abs(vals - exact) / exact) < 1e-4

    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.99])
    def test_edge_targets(self, alpha):
        # the origin, r[1] 1e-9 to r[1] / 2 inside the head panel, and a node
        # and a panel end each one ulp either side, against the reference
        grid = make_grid(3, 25.0, 400, 2.0)
        targets = [0.0, *(grid.r[1] * np.array([1e-9, 1e-3, 0.5]))]
        for x in (grid.r[79], grid.panels.b[40]):
            targets += [np.nextafter(x, 0), x, np.nextafter(x, 2 * x)]
        assert_shell_rows(grid, alpha, targets)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-17, 1e-300])
    def test_potential_tends_to_the_field_as_alpha_vanishes(self, alpha):
        # I_alpha -> identity: the quadrature error of the origin value and of
        # the node values shrinks like alpha, down to where 1 - alpha rounds
        # to 1 (the graded rule gave 3.2e-299 at the origin for alpha = 1e-300)
        grid = make_grid(3, 25.0, 400, 2.0)
        g = RadialField.from_values(grid, np.exp(-grid.r ** 2), origin=1.0)
        D = convolve(grid, g, alpha)
        exact = gamma((3 - alpha) / 2) / (2 ** alpha * gamma(1.5))
        assert abs(D.origin - exact) <= 2e-2 * alpha + 1e-12
        assert np.abs(D.values - g.values).max() <= alpha + 1e-12

    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, 2.99])
    def test_rows_continuous_at_the_origin(self, alpha):
        # the rows at t = r[1] 10^-k, k = 1..14, approach the origin row
        grid = make_grid(3, 25.0, 400, 2.0)
        origin = dense_rows(grid, alpha, [0.0])[0]
        rows = dense_rows(grid, alpha, grid.r[1] * 10.0 ** -np.arange(1, 15))
        gap = np.abs(rows - origin).max(axis=1) / np.abs(origin).max()
        assert np.all(gap[1:] <= gap[:-1] + 1e-15)
        assert gap[-1] <= 1e-13


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


def assert_same_product(tab, G, x):
    """apply(x) equals G @ x up to the rounding of a length-n dot product,
    n eps (|G| |x|) in each entry: the two sum in different orders."""
    bound = x.size * np.finfo(float).eps * (np.abs(G) @ np.abs(x))
    assert np.all(np.abs(tab.apply(x) - G @ x) <= bound)


def table_and_G(grid, alpha):
    """The table `_build_table` makes, and the dense G it stands for."""
    return riesz._build_table(grid, alpha), dense_table(grid, alpha)


# (N, alpha, n): every N at alpha = 0.1 to N - 0.5 on n = 400 (ids N-alpha,
# a hierarchy of depth 2); threshold's grid (n = 1000, depth 3),
# multiplicity's (n = 1100, not 2^L times a leaf: padded to 1104) and
# n = 1600 (depth 4)
APPLY_CASES = [(N, alpha, 400) for N in (3, 4, 5)
               for alpha in (0.1, 0.3, 0.5, 1.0, 1.5, 2.0, N - 0.5)] + [
    (3, 1.0, 1000), (4, 1.0, 1100), (3, 1.5, 1600)]
APPLY_GRIDS = {400: (25.0, 2.0), 1000: (40.0, 2.5), 1100: (60.0, 3.0), 1600: (25.0, 2.0)}


class TestApply:
    """`RieszKernelTable.apply`, the one product with G, through its HODLR
    form: leaves and low-rank off-diagonal blocks, against the dense G."""

    @pytest.mark.parametrize("N,alpha,n", APPLY_CASES,
                             ids=[f"{N}-{alpha}" + (f"-n{n}" if n != 400 else "")
                                  for N, alpha, n in APPLY_CASES])
    def test_matches_the_dense_product(self, N, alpha, n):
        # a positive field, a signed one, and positive bubbles concentrated
        # at xi = r[24] (the solvers' scale floor) and r[100]
        r_max, grading = APPLY_GRIDS[n]
        grid = make_grid(N, r_max, n, grading)
        tab, G = table_and_G(grid, alpha)
        bubbles = [(1.0 + (grid.r / xi) ** 2) ** -2.0 for xi in grid.r[[24, 100]]]
        for x in (positive_field(grid), np.random.default_rng(7).standard_normal(grid.n),
                  *bubbles):
            assert_same_product(tab, G, x)
        x = positive_field(grid)
        assert tab.bilinear(x, x) == float(x @ tab.apply(x))

    def test_padding_that_fills_whole_leaves(self, monkeypatch):
        # past n = 8000 the padding to 2^L m nodes can exceed a leaf; with
        # leaves of 2, n = 9 pads to 16 and the last three leaves hold none
        monkeypatch.setattr(riesz, "_LEAF", 2)
        i = np.arange(9.0)
        G = 1.0 / (1.0 + np.abs(i[:, None] - i))
        leaves, factors = compress(G)
        assert leaves.shape == (8, 2, 2) and not leaves[5:].any()
        tab = riesz.RieszKernelTable(SimpleNamespace(n=9), 1.0, leaves, factors)
        assert_same_product(tab, G, np.random.default_rng(3).standard_normal(9))

    @pytest.mark.parametrize("n,size", [(1000, 600), (1000, 1001), (1100, 1099),
                                        (1100, 1101), (1100, 1104)])
    def test_rejects_values_off_the_grid(self, n, size):
        # a shorter vector used to be zero-padded, and on a grid padded to
        # whole leaves (1100 nodes in 1104) so did one up to the padding,
        # where the dense G @ x raised
        r_max, grading = APPLY_GRIDS[n]
        tab = kernel_table(make_grid(3, r_max, n, grading), 1.0)
        x, ok = np.ones(size), np.ones(n)
        for call in (lambda: tab.apply(x), lambda: tab.bilinear(x, ok),
                     lambda: tab.bilinear(ok, x), lambda: tab.apply(ok[:, None])):
            with pytest.raises(IncompatibleGrid):
                call()

    def test_makes_no_copy_of_the_table(self, grid3_table2):
        # beyond x padded and the product, only the per-level coefficients
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
        tab, G = table_and_G(grid, alpha)
        assert np.array_equal(G, G.T)
        f, g = np.random.default_rng(seed).random((2, n))
        s1, s2 = tab.bilinear(f, g), tab.bilinear(g, f)
        assert abs(s1 - s2) <= 1e-14 * abs(s1)
        assert_same_product(tab, G, g)


class TestTableAgainstDirectKernel:
    """Tables from `kernel_value` against tables whose every kernel value
    comes from scipy's hyp2f1 (`kernel_direct` patched in)."""

    @staticmethod
    def arrays(grid, alpha):
        # G as `dense_table` forms it from M, bit for bit, without a second
        # build of M (TestBatchedNearRows checks the build itself)
        M = dense_rows(grid, alpha, grid.r)
        WM = grid.weights_full[:, None] * M
        return {"M": M, "G": 0.5 * (WM + WM.T),
                "origin_row": dense_rows(grid, alpha, [0.0])[0]}

    def tables(self, grid, alpha):
        new = self.arrays(grid, alpha)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(riesz, "_kernel", kernel_direct_into)
            old = self.arrays(grid, alpha)
        return new, old

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5, 3.5])
    def test_connection_branch_agrees(self, alpha):
        # N = 3 takes the elementary shell average, N = 4 and 5 the connection
        # series at z > 1/2.  Each array at its own scale: G carries the
        # quadrature weights.  At alpha = 0.5 the difference is hyp2f1's
        # rounding of z near 1 (~1e-10); alpha = 1, where hyp2f1 rounds less,
        # meets a bound of 1e-12
        bound = 1e-12 if alpha == 1.0 else 1e-9
        for N in (3, 4, 5):
            if alpha >= N:
                continue
            new, old = self.tables(make_grid(N, 25.0, 120, 2.0), alpha)
            for name in ("M", "G", "origin_row"):
                a, b = new[name], old[name]
                assert np.abs(a - b).max() <= bound * np.abs(b).max(), (N, name)

    @pytest.mark.parametrize("alpha", [2.0])
    def test_direct_branch_bit_identical(self, alpha):
        # every N keeps F = 1 at alpha = 2
        for N in (3, 4):
            new, old = self.tables(make_grid(N, 25.0, 120, 2.0), alpha)
            for name in ("M", "G", "origin_row"):
                assert np.array_equal(new[name], old[name]), (N, name)


class TestScaleCovariance:
    """The Riesz potential is homogeneous: on make_grid(N, r_max/arg, n, g),
    whose nodes are the old ones divided by arg, G is arg^-(N+alpha) times
    the original's, an oracle that needs no mpmath."""

    @pytest.mark.parametrize("N, alpha", [
        *((N, a) for N in (3, 4) for a in (1.0, 1.3, 2.0)), (4, 3.0), (5, 1.0), (5, 2.5),
        pytest.param(5, 0.5, marks=pytest.mark.xfail(
            strict=True, reason="only diagonal entries differ (rows 162-399, up to 7.8e-10 "
                                "of the maximum; every other entry within 9e-15): "
                                "`_refined_pieces` cuts about 1.5e-10 t from each target, "
                                "the cuts' rounding moves the two grids' scaled gaps apart "
                                "by up to 1.9e-6 relative, and |s - t|^(alpha - 1) carries "
                                "that into the target's own entry"))])
    def test_rescaled_grid_scales_the_table(self, N, alpha):
        G = dense_table(make_grid(N, 25.0, 400, 2.0), alpha)
        for arg in (2.82, 3.0):
            scaled = arg ** -(N + alpha) * G
            new = dense_table(make_grid(N, 25.0 / arg, 400, 2.0), alpha)
            assert np.abs(new - scaled).max() <= 1e-12 * np.abs(scaled).max(), arg

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import gamma, pi
from scipy.interpolate import PchipInterpolator

from choquard_lab.asymptotics import concentration_scale
from choquard_lab.errors import IncompatibleGrid, InvalidConfiguration
from choquard_lab.functional import ProblemParams, compute_parts, scaled_parts
from choquard_lab.grid import (RadialField, derivative_values, gradient_seminorm,
                               integrate, kinetic_energy, make_grid)
from choquard_lab.profiles import gaussian, talenti


def ball_volume(N, R):
    return pi ** (N / 2) * R ** N / gamma(N / 2 + 1)


# the grids of test_08 (threshold), the kernel benchmark, test_12, and two finer ones
EXACT_GRIDS = [(3, 40.0, 1000, 2.5), (3, 25.0, 600, 2.0), (4, 60.0, 1100, 3.0),
               (3, 60.0, 1600, 3.0), (3, 25.0, 1600, 1.0)]


def panel_rules_mp(N, a, b, x):
    """(quadratic, product-trapezoid) weights of one panel at 40 digits from
    the exact binary a, b and nodes x: each rule's basis functions expanded
    in powers of r, and int_lo^hi r^(k-1) dr = (hi^k - lo^k) / k."""
    with mpmath.workdps(40):
        a, b, *x = (mpmath.mpf(float(v)) for v in (a, b, *x))
        P = lambda lo, hi, k: (hi ** k - lo ** k) / k
        quadratic = [(P(a, b, N + 2) - (x[i] + x[j]) * P(a, b, N + 1) + x[i] * x[j] * P(a, b, N))
                     / ((x[m] - x[i]) * (x[m] - x[j]))
                     for m, (i, j) in enumerate(((1, 2), (0, 2), (0, 1)))]
        trapezoid = [mpmath.mpf(0)] * 3
        for k in (0, 1):
            lo, hi = x[k], x[k + 1]
            top = min(hi, b)
            if top > lo:
                m0, m1 = P(lo, top, N), P(lo, top, N + 1)
                trapezoid[k] += (hi * m0 - m1) / (hi - lo)
                trapezoid[k + 1] += (m1 - lo * m0) / (hi - lo)
        return [np.array([float(v) for v in w]) for w in (quadratic, trapezoid)]


def assert_panel_rules(g, tol, each=True):
    """Every panel past the head cell carries its quadratic rule, or the
    product trapezoid exactly where a quadratic weight is negative, within
    `tol` of each weight, or (each=False) of the panel's largest; returns
    the panels of the product trapezoid."""
    a, b, nodes = g.panels
    assert np.array_equal(g.panel_weights[0], [b[0] ** g.N / g.N, 0.0, 0.0])
    fallback = []
    for k in range(1, len(a)):
        quadratic, trapezoid = panel_rules_mp(g.N, a[k], b[k], g.r[nodes[k]])
        negative = quadratic.min() < 0
        fallback += [k] if negative else []
        ref = trapezoid if negative else quadratic
        scale = np.abs(ref) if each else np.abs(ref).max()
        assert np.all(np.abs(g.panel_weights[k] - ref) <= tol * scale), k
    return fallback


class TestMakeGrid:
    def test_unit_ball_volume(self):
        g = make_grid(3, 1.0, 200, 1.0)
        assert abs(integrate(g, np.ones(g.n)) - 4 * pi / 3) < 1e-8

    def test_ball_volume_dim4(self):
        g = make_grid(4, 2.0, 400, 2.0)
        assert abs(integrate(g, np.ones(g.n)) - ball_volume(4, 2.0)) < 1e-8

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InvalidConfiguration):
            make_grid(3, 1.0, 8)

    def test_bad_radius_rejected(self):
        with pytest.raises(InvalidConfiguration):
            make_grid(3, -1.0, 100)
        with pytest.raises(InvalidConfiguration):
            make_grid(3, 0.0, 100)

    @pytest.mark.parametrize("grading", [0.5, np.nan, np.inf])
    def test_bad_grading_rejected(self, grading):
        # a NaN grading built a grid of NaN nodes
        with pytest.raises(InvalidConfiguration):
            make_grid(3, 20.0, 100, grading)

    def test_low_dimension_rejected(self):
        with pytest.raises(InvalidConfiguration):
            make_grid(2, 1.0, 100)

    @pytest.mark.parametrize("N, n", [(3.0, 100), (3.5, 100), (3, 100.0)])
    def test_non_integer_dimension_or_node_count_rejected(self, N, n):
        # a float N or n must not reach math.comb in _moments or np.zeros (TypeError)
        with pytest.raises(InvalidConfiguration, match="integer"):
            make_grid(N, 20.0, n, 2.0)

    def test_nodes_increasing_weights_positive(self):
        g = make_grid(3, 50.0, 300, 2.5)
        assert np.all(np.diff(g.r) > 0)
        assert np.all(g.w > 0)
        # weight sum is the ball-volume moment
        assert np.isclose(g.w.sum(), g.r_max ** 3 / 3, rtol=1e-13)

    @pytest.mark.parametrize("args", EXACT_GRIDS)
    def test_panel_weights_exact(self, args):
        # power moments b^(k+N) - a^(k+N) cancel on narrow panels far from
        # the origin, by up to 1.5e-7 of a weight on these grids
        assert_panel_rules(make_grid(*args), 1e-14)

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_fallback_where_a_quadratic_weight_is_negative(self, N):
        # on skewed panels a small quadratic weight is the difference of
        # moments of the panel's size: it is exact to the panel's scale
        for grading in (1.0, 2.0, 3.0, 4.0):
            for n in (16, 17, 400, 401):
                g = make_grid(N, 25.0, n, grading)
                fallback = assert_panel_rules(g, 1e-14, each=False)
                # only the innermost panels are skewed enough
                assert fallback == list(range(1, len(fallback) + 1)), (grading, n)

    @pytest.mark.parametrize("args", EXACT_GRIDS)
    def test_stiffness_exact(self, args):
        # int_{r_i}^{r_i+1} r^(N-1) dr / h_i^2 on each interval
        g = make_grid(*args)
        with mpmath.workdps(40):
            r = [mpmath.mpf(float(v)) for v in g.r]
            m = np.array([float((hi ** g.N - lo ** g.N) / (g.N * (hi - lo) ** 2))
                          for lo, hi in zip(r[:-1], r[1:])])
        diag = np.append(m, 0.0) + np.append(0.0, m)
        assert np.all(np.abs(g.stiff_off + m) <= 1e-14 * m)
        assert np.all(np.abs(g.stiff_diag - diag) <= 1e-14 * diag)


class TestIntegrate:
    def test_zero_field(self):
        g = make_grid(3, 10.0, 100)
        assert integrate(g, np.zeros(g.n)) == 0.0

    def test_gaussian(self):
        g = make_grid(3, 9.0, 800, 2.0)
        val = integrate(g, np.exp(-g.r ** 2))
        assert abs(val - pi ** 1.5) < 1e-6

    def test_indicator_ball(self):
        g = make_grid(3, 8.0, 3000, 2.0)
        f = np.where(g.r <= 1.0, 1.0, 0.0)
        assert abs(integrate(g, f) - 4 * pi / 3) < 2e-2 * (4 * pi / 3)

    def test_grid_mismatch(self):
        g1 = make_grid(3, 10.0, 100)
        g2 = make_grid(3, 10.0, 128)
        f = RadialField.from_values(g2, np.ones(g2.n))
        with pytest.raises(IncompatibleGrid):
            integrate(g1, f)

    def test_linearity(self, rng):
        g = make_grid(3, 5.0, 200)
        f1 = rng.random(g.n)
        f2 = rng.random(g.n)
        a, b = 2.3, -0.7
        assert np.isclose(integrate(g, a * f1 + b * f2),
                          a * integrate(g, f1) + b * integrate(g, f2), rtol=1e-13)

    def test_monotone(self, rng):
        g = make_grid(3, 5.0, 200)
        f = rng.random(g.n)
        h = f + rng.random(g.n)
        assert integrate(g, f) <= integrate(g, h)

    @given(deg=st.integers(0, 2), coef=st.floats(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_polynomials_exact_to_rule_order(self, deg, coef):
        # quadratics are exact on the quadratic panels; the head cell and the
        # positivity-degraded panels near the origin carry negligible measure
        g = make_grid(3, 2.0, 400, 2.0)
        vals = coef * g.r ** deg
        exact = 4 * pi * coef * g.r_max ** (deg + 3) / (deg + 3)
        assert abs(4 * pi * np.dot(g.w, vals) - exact) <= 1e-10 * abs(exact) + 1e-14


@st.composite
def pchip_cases(draw):
    """A field with sign changes, a flat zero stretch and a tail scaled by
    1e-320 to 1, so often below the 1e-200 flush, and targets at the nodes,
    0, r_max, beyond it and between.  The first node keeps a value of at
    least 1e-12, so the peak that the flush is relative to is a normal number."""
    n = draw(st.integers(16, 80))
    g = make_grid(draw(st.integers(3, 5)), draw(st.floats(1.0, 60.0)), n,
                  draw(st.floats(1.0, 3.0)))
    sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    decades = np.array(draw(st.lists(st.floats(-12.0, 3.0), min_size=n, max_size=n)))
    vals = sign * 10.0 ** decades
    lo = draw(st.integers(1, n - 1))
    vals[lo:lo + draw(st.integers(0, n // 2))] = 0.0
    tail = draw(st.integers(1, n))
    vals[tail:] *= 10.0 ** draw(st.floats(-320.0, 0.0))
    field = RadialField.from_values(g, vals)
    inner = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))) * g.r_max
    beyond = g.r_max * (1.0 + np.array([1e-15, 1e-3, 0.5]))
    return field, np.concatenate((g.r, [0.0, g.r_max], beyond, inner))


class TestField:
    def test_interpolation_reproduces_nodes(self):
        g = make_grid(3, 10.0, 150)
        f = gaussian(g)
        assert np.allclose(f(g.r), f.values, rtol=0, atol=1e-14)

    @given(pchip_cases())
    @settings(max_examples=150, deadline=None)
    def test_interpolation_is_scipys_pchip_bit_for_bit(self, case):
        f, t = case
        x = np.concatenate(([0.0], f.grid.r))
        y = np.concatenate(([f.origin], f.values))
        y[np.abs(y) < 1e-200 * np.max(np.abs(y))] = 0.0
        ref = np.nan_to_num(PchipInterpolator(x, y, extrapolate=False)(t))
        ref[t == f.grid.r_max] = y[-1]      # the node, not the last cubic's roundoff
        got = f(t)
        assert np.array_equal(got, ref)
        assert np.all(got[t > f.grid.r_max] == 0.0)

    @pytest.mark.parametrize("grid_args,width,zero_last", [
        ((3, 20.0, 200, 2.0), 0.3, True), ((3, 20.0, 200, 2.0), 0.3, False),
        ((4, 60.0, 1100, 3.0), 1 / 3, True), ((4, 60.0, 1100, 3.0), 0.1, False)])
    def test_nodes_are_returned_bitwise(self, grid_args, width, zero_last):
        # the last cubic ends at r_max a few ulps off its node: a last node of
        # 0 read 2.5e-21 on the first grid and -6.8e-21 on the second, and a
        # nonzero one was off by an ulp; no value here is under the flush
        g = make_grid(*grid_args)
        vals = gaussian(g, width=width * g.r_max).values
        if zero_last:
            vals[-1] = 0.0
        f = RadialField.from_values(g, vals)
        assert np.array_equal(f(g.r), f.values)

    def test_nonfinite_rejected(self):
        g = make_grid(3, 10.0, 100)
        vals = np.ones(g.n)
        vals[3] = np.nan
        with pytest.raises(InvalidConfiguration):
            RadialField.from_values(g, vals)

    def test_nonfinite_origin_rejected(self):
        g = make_grid(3, 10.0, 100)
        with pytest.raises(InvalidConfiguration):
            RadialField.from_values(g, np.ones(g.n), origin=np.nan)

    def test_csv_nan_origin_rejected(self):
        # the r = 0 row of a field file loaded and evaluated to NaN at r = 0
        g = make_grid(3, 10.0, 100)
        lines = gaussian(g, width=2.0).to_csv().splitlines()
        lines[1] = "0.0,nan"
        with pytest.raises(InvalidConfiguration):
            RadialField.from_csv(g, "\n".join(lines))

    def test_csv_round_trip(self):
        g = make_grid(3, 10.0, 100)
        f = gaussian(g, width=2.0)
        f2 = RadialField.from_csv(g, f.to_csv())
        assert np.array_equal(f2.values, f.values)
        assert f2.origin == f.origin

    def test_csv_from_another_grid_rejected(self):
        # nodes 1e-7 relative off pass np.allclose's rtol 1e-5, but not the
        # exact match that repr's round trip allows
        g, other = make_grid(3, 40.0, 1000, 2.5), make_grid(3, 40.0 * (1 + 1e-7), 1000, 2.5)
        with pytest.raises(IncompatibleGrid):
            RadialField.from_csv(g, gaussian(other, width=2.0).to_csv())

    @pytest.mark.parametrize("row", ["0.5,1.0,2.0", "0.5", "0.5,one"])
    def test_csv_malformed_row_rejected(self, row):
        g = make_grid(3, 10.0, 100)
        lines = gaussian(g, width=2.0).to_csv().splitlines()
        lines[3] = row
        with pytest.raises(InvalidConfiguration):
            RadialField.from_csv(g, "\n".join(lines))


class TestRescaled:
    """amp * u(arg r), node for node on make_grid(N, r_max / arg, n, grading)."""

    @staticmethod
    def bump(grid):
        return RadialField.from_values(grid, np.exp(-grid.r ** 2) * (1 + grid.r))

    @pytest.mark.parametrize("amp,arg", [(3.0, 9.0), (3 ** 0.25, 3 ** 0.5), (0.5 ** 0.5, 0.5)],
                             ids=["arg=9", "arg=sqrt3", "arg=0.5"])
    @pytest.mark.parametrize("with_deriv", [True, False], ids=["deriv", "no-deriv"])
    def test_values_move_node_for_node(self, grid3, amp, arg, with_deriv):
        # amp * u(arg r) at the rescaled nodes r / arg is amp * u(r): no interpolation,
        # and a stored derivative travels as amp * arg * u'
        f = talenti(grid3, eps=0.5) if with_deriv else self.bump(grid3)
        out = f.rescaled(amp, arg)
        np.testing.assert_allclose(out.grid.r * arg, grid3.r, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(out.values, amp * f.values)
        assert out.origin == amp * f.origin
        if with_deriv:
            np.testing.assert_array_equal(out.deriv, amp * arg * f.deriv)
        else:
            assert out.deriv is None

    def test_round_trip(self, grid3):
        f = RadialField.from_values(grid3, np.exp(-0.5 * grid3.r ** 2))
        back = f.rescaled(2.5, 6.25).rescaled(1 / 2.5, 1 / 6.25)
        np.testing.assert_allclose(back.grid.r, grid3.r, rtol=1e-14, atol=0)
        np.testing.assert_allclose(back.values, f.values, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("bubble", [False, True], ids=["bump", "bubble"])
    def test_parts_follow_the_scaling_laws(self, grid3, bubble):
        # the parts recomputed on the rescaled grid match the closed scaling laws
        params = ProblemParams(3, 2.0, 5.0, 3.0)
        f = talenti(grid3, eps=0.5) if bubble else self.bump(grid3)
        amp, arg = (0.5 ** 0.5, 0.5) if bubble else (3.0, 9.0)
        after = compute_parts(params, f.rescaled(amp, arg))
        pred = scaled_parts(params, compute_parts(params, f), amp, arg)
        for name in ("kinetic", "mass", "riesz", "power"):
            a, b = getattr(after, name), getattr(pred, name)
            assert abs(a - b) < 1e-6 * abs(b), (name, a, b)

    def test_peak_matched_scale_lands_on_the_unit_bubble(self, grid3):
        # xi from the peak, and xi^((N-2)/2) W_eps(xi r) = W_1(r) at eps = xi
        f = talenti(grid3, eps=0.5)
        xi = concentration_scale(f)
        assert np.isclose(xi, 0.5, rtol=1e-10)
        out = f.rescaled(xi ** 0.5, xi)
        np.testing.assert_allclose(out.values, talenti(out.grid).values, rtol=1e-12, atol=0)

    def test_nonpositive_arg_rejected(self, grid3):
        # arg = 0 divided r_max by zero
        with pytest.raises(InvalidConfiguration):
            self.bump(grid3).rescaled(1.0, 0.0)


class TestKineticForms:
    def test_finite_difference_derivative_exact_for_quadratics(self):
        # no stored derivative: the central difference, with the origin value
        # as the left neighbour of r[0], is exact for c + r^2 at all but the
        # last node; the error is measured against max|u'| = 2 r_max, since
        # near the origin the differences cancel c to roundoff
        for N in (3, 4, 5):
            for grading in (1.0, 2.5):
                g = make_grid(N, 10.0, 400, grading)
                f = RadialField.from_values(g, 1.3 + g.r ** 2)
                d = derivative_values(f)
                assert np.max(np.abs(d[:-1] - 2 * g.r[:-1])) < 1e-10 * 2 * g.r_max

    def test_stiffness_matches_quadrature_seminorm(self):
        g = make_grid(3, 20.0, 1500, 2.0)
        f = gaussian(g, width=1.5)
        a = kinetic_energy(g, f.values)
        b = gradient_seminorm(f)
        assert abs(a - b) < 2e-4 * abs(b)

    def test_gradient_seminorm_gaussian(self):
        # int_{R^3} |grad e^(-r^2)|^2 = 16 pi int r^4 e^(-2r^2) dr = 6 pi^(3/2) / 2^(5/2)
        g = make_grid(3, 12.0, 2000, 2.0)
        f = gaussian(g)
        exact = 6 * pi ** 1.5 / 2 ** 2.5
        assert np.isclose(gradient_seminorm(f), exact, rtol=1e-8)

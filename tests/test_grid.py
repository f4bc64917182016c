import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import gamma, pi

from choquard_lab.errors import IncompatibleGrid, InvalidConfiguration
from choquard_lab.grid import (RadialField, derivative_values, gradient_seminorm,
                               integrate, kinetic_energy, make_grid)
from choquard_lab.profiles import gaussian


def ball_volume(N, R):
    return pi ** (N / 2) * R ** N / gamma(N / 2 + 1)


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

    def test_low_dimension_rejected(self):
        with pytest.raises(InvalidConfiguration):
            make_grid(2, 1.0, 100)

    def test_nodes_increasing_weights_positive(self):
        g = make_grid(3, 50.0, 300, 2.5)
        assert np.all(np.diff(g.r) > 0)
        assert np.all(g.w > 0)
        # weight sum is the ball-volume moment
        assert np.isclose(g.w.sum(), g.r_max ** 3 / 3, rtol=1e-13)


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


class TestField:
    def test_interpolation_reproduces_nodes(self):
        g = make_grid(3, 10.0, 150)
        f = gaussian(g)
        assert np.allclose(f(g.r), f.values, rtol=0, atol=1e-14)

    def test_nonfinite_rejected(self):
        g = make_grid(3, 10.0, 100)
        vals = np.ones(g.n)
        vals[3] = np.nan
        with pytest.raises(InvalidConfiguration):
            RadialField.from_values(g, vals)

    def test_csv_round_trip(self):
        g = make_grid(3, 10.0, 100)
        f = gaussian(g, width=2.0)
        f2 = RadialField.from_csv(g, f.to_csv())
        assert np.array_equal(f2.values, f.values)
        assert f2.origin == f.origin


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

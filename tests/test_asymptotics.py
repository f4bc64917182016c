import numpy as np
import pytest

from choquard_lab.asymptotics import (concentration_scale, kelvin, rate_fit,
                                      tail_exponent_fit)
from choquard_lab.errors import InvalidParameter
from choquard_lab.grid import RadialField, gradient_seminorm, make_grid
from choquard_lab.profiles import talenti, talenti_peak


@pytest.fixture(scope="module")
def tail_grid():
    return make_grid(3, 80.0, 1500, 2.0)


class TestConcentrationScale:
    def test_bubble_is_unit(self, grid3):
        assert np.isclose(concentration_scale(talenti(grid3)), 1.0, rtol=1e-12)

    def test_equivariance(self, grid3):
        for eps in (0.1, 0.37, 2.0):
            f = talenti(grid3, eps=eps)
            assert np.isclose(concentration_scale(f), eps, rtol=1e-10)

    def test_flat_field_formula(self, grid3):
        c = 0.4
        f = RadialField.from_values(grid3, np.full(grid3.n, c), origin=c)
        assert np.isclose(concentration_scale(f), (talenti_peak(3) / c) ** 2,
                          rtol=1e-12)

    def test_vanishing_peak(self, grid3):
        f = RadialField.from_values(grid3, np.zeros(grid3.n), origin=0.0)
        with pytest.raises(InvalidParameter):
            concentration_scale(f)


class TestKelvin:
    def test_involution(self, grid3):
        f = RadialField.from_values(grid3, np.exp(-(grid3.r - 2) ** 2))
        ff = kelvin(kelvin(f))
        window = (grid3.r > 2.0 / grid3.r_max) & (grid3.r < 0.5 * grid3.r_max)
        assert np.allclose(ff.values[window], f.values[window], atol=5e-4)

    def test_bubble_fixed_point(self, grid3):
        # r^-1 W_1(1/r) = W_1(r) for N = 3
        w = talenti(grid3)
        kw = kelvin(w)
        window = grid3.r > 1.5 / grid3.r_max
        assert np.allclose(kw.values[window], w.values[window], rtol=1e-6)

    def test_constant_maps_to_power(self, grid3):
        c = 2.0
        f = RadialField.from_values(grid3, np.full(grid3.n, c), origin=c)
        kf = kelvin(f)
        window = (grid3.r > 1.0 / grid3.r_max) & (grid3.r <= 1.0)
        assert np.allclose(kf.values[window], c / grid3.r[window], rtol=1e-10)

    def test_gradient_isometry(self):
        # smooth bump placed so that its Kelvin image stays grid-resolvable
        g = make_grid(3, 40.0, 3000, 2.5)
        vals = np.exp(-((g.r - 1.5) / 0.4) ** 2)
        f = RadialField.from_values(g, vals)
        kf = kelvin(f)
        a = gradient_seminorm(f)
        b = gradient_seminorm(kf)
        assert abs(a - b) < 5e-3 * a


class TestTailFit:
    def test_bubble_tail_slope(self, tail_grid):
        w = talenti(tail_grid)
        fit = tail_exponent_fit(w, (10.0, 40.0))
        assert abs(fit.slope - (-1.0)) < 0.05

    def test_pure_power(self, tail_grid):
        f = RadialField.from_values(tail_grid, tail_grid.r ** -2.0)
        fit = tail_exponent_fit(f, (5.0, 50.0))
        assert np.isclose(fit.slope, -2.0, atol=1e-12)
        assert fit.r_squared > 1 - 1e-12

    def test_exponential_regime_detected(self, tail_grid):
        f = RadialField.from_values(tail_grid, np.exp(-tail_grid.r) / tail_grid.r)
        fit = tail_exponent_fit(f, (4.0, 16.0))
        assert fit.slope < -2.0

    def test_narrow_window_rejected(self, tail_grid):
        with pytest.raises(InvalidParameter):
            tail_exponent_fit(talenti(tail_grid), (10.0, 20.0))


class TestRateFit:
    def test_exact_power_law(self):
        c = np.geomspace(0.1, 100, 9)
        fit = rate_fit(c, 3.0 / c)
        assert np.isclose(fit.slope, -1.0, atol=1e-12)
        assert np.isclose(fit.intercept, np.log(3.0), atol=1e-12)
        assert fit.r_squared > 1 - 1e-14

    def test_insufficient_span(self):
        with pytest.raises(InvalidParameter):
            rate_fit([1.0, 1.5, 2.0, 2.5], [1, 2, 3, 4])

    def test_too_few_points(self):
        with pytest.raises(InvalidParameter):
            rate_fit([1.0, 10.0, 100.0], [1, 2, 3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_coupling_rejected(self, bad, capfd):
        # it reached lstsq, which raised LinAlgError and printed LAPACK lines
        c = np.geomspace(0.1, 100, 6)
        v = 3.0 / c
        c[2] = bad
        with pytest.raises(InvalidParameter):
            rate_fit(c, v)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_value_rejected(self, bad):
        # a NaN value passed `v <= 0` and fitted slope NaN with r_squared 1.0
        c = np.geomspace(0.1, 100, 6)
        v = 3.0 / c
        v[2] = bad
        with pytest.raises(InvalidParameter):
            rate_fit(c, v)


class TestExpectedExponents:
    def test_theorem_rate_exponents(self):
        # the gap exponents used by the coupling scans
        p, q = 2.0, 4.0
        assert np.isclose(-2 * (p - 1) / (q - 2), -1.0)
        assert np.isclose(-(q - 2) / (2 * (p - 1)), -1.0)
        p, alpha = 2.5, 1.0
        assert np.isclose(2.0 / (p - 1 - alpha), 4.0, rtol=1e-14)

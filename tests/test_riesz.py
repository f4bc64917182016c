import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import gamma, pi

from scipy.integrate import quad
from scipy.special import hyp1f1

from choquard_lab.constants import interaction_bound_constant
from choquard_lab.errors import IncompatibleGrid, InvalidParameter
from choquard_lab.grid import RadialField, integrate, make_grid
from choquard_lab.profiles import hls_extremizer
from choquard_lab.riesz import (RieszKernelTable, convolve, interaction_energy,
                                kernel_table, kernel_value, potential_at,
                                riesz_normalization)


def kernel_bruteforce(N, alpha, r, s):
    """Independent oracle: direct theta-quadrature of the sphere average."""
    f = lambda t: np.sin(t) ** (N - 2) * (r * r + s * s - 2 * r * s * np.cos(t)) ** (-(N - alpha) / 2)
    val, _ = quad(f, 0, pi, limit=200)
    surf = 2 * pi ** ((N - 1) / 2) / gamma((N - 1) / 2)
    return riesz_normalization(N, alpha) * surf * val


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


class TestKernelTable:
    def test_save_load_round_trip(self, tmp_path, ball_grid):
        tab = kernel_table(ball_grid, 2.0)
        path = tmp_path / f"kernel_{tab.key_hash}.npz"
        tab.save(path)
        tab2 = RieszKernelTable.load(path, ball_grid, 2.0)
        assert np.array_equal(tab2.G, tab.G)

    def test_load_wrong_grid_rejected(self, tmp_path, ball_grid):
        tab = kernel_table(ball_grid, 2.0)
        path = tmp_path / "kernel.npz"
        tab.save(path)
        other = make_grid(3, 1.0, 820, 1.0)
        with pytest.raises(IncompatibleGrid):
            RieszKernelTable.load(path, other, 2.0)

    def test_cache_reuse(self, ball_grid):
        assert kernel_table(ball_grid, 2.0) is kernel_table(ball_grid, 2.0)

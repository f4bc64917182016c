import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import gamma, pi, sqrt

from scipy.optimize import minimize_scalar

from choquard_lab.constants import (coefficient_table, gn_constant, hls_constant,
                                    interaction_bound_constant, rayleigh_constants,
                                    riesz_normalization, sobolev_constant)
from choquard_lab.errors import InvalidParameter
from choquard_lab.grid import RadialField, integrate, make_grid


class TestGammaFormulas:
    def test_riesz_normalization_values(self):
        assert np.isclose(riesz_normalization(3, 2.0), 1 / (4 * pi), rtol=1e-13)
        assert np.isclose(riesz_normalization(3, 1.0), 1 / (2 * pi ** 2), rtol=1e-13)
        assert np.isclose(riesz_normalization(5, 4.0), 1 / (16 * pi ** 2), rtol=1e-13)

    def test_hls_constant_32(self):
        expected = (4 / 3) * (sqrt(pi) / 4) ** (-2 / 3)
        assert np.isclose(hls_constant(3, 2.0), expected, rtol=1e-13)

    def test_hls_constant_31_gamma_oracle(self):
        # independent evaluation of the same Gamma expression
        expected = (pi ** 1.0 * gamma(0.5) / gamma(2.0)
                    * (gamma(1.5) / gamma(3.0)) ** (-1 / 3))
        assert np.isclose(hls_constant(3, 1.0), expected, rtol=1e-13)

    def test_sobolev_constant(self):
        assert np.isclose(sobolev_constant(3), 3 * pi * (sqrt(pi) / 4) ** (2 / 3),
                          rtol=1e-13)
        assert abs(sobolev_constant(3) - 5.478) < 5e-3

    def test_sobolev_constant_needs_n_above_two(self):
        # N = 2 returned 0.0
        with pytest.raises(InvalidParameter):
            sobolev_constant(2)

    def test_range_guards(self):
        with pytest.raises(InvalidParameter):
            hls_constant(3, 3.0)
        with pytest.raises(InvalidParameter):
            riesz_normalization(3, -1.0)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310, 2e-308])
    def test_riesz_normalization_where_gamma_overflows(self, alpha):
        # Gamma(alpha/2) ~ 2/alpha overflows a double here, A_alpha(N) ~ alpha does not
        a = mpmath.mpf(alpha)
        for N in (3, 4, 5):
            exact = float(mpmath.gamma((N - a) / 2)
                          / (mpmath.gamma(a / 2) * mpmath.pi ** (mpmath.mpf(N) / 2) * 2 ** a))
            # one unit in the last place of a subnormal result
            assert abs(riesz_normalization(N, alpha) - exact) <= max(1e-13 * exact, 5e-324)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310, 1e-308, 1e-301])
    def test_interaction_bound_where_gamma_overflows(self, alpha):
        # Gamma(alpha/2) cancels between A_alpha and the HLS constant; the
        # product raised "the HLS constant overflows" below about 1e-307
        a = mpmath.mpf(alpha)
        for N in (3, 4, 5):
            exact = float(mpmath.gamma((N - a) / 2) / mpmath.gamma((N + a) / 2)
                          * (4 * mpmath.pi) ** (-a / 2)
                          * (mpmath.gamma(mpmath.mpf(N) / 2) / mpmath.gamma(N)) ** (-a / N))
            assert abs(interaction_bound_constant(N, alpha) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310, 2e-308])
    def test_hls_constant_overflow_raises(self, alpha):
        # the constant grows like |S^(N-1)| / alpha, beyond the largest double
        with pytest.raises(InvalidParameter):
            hls_constant(3, alpha)


class TestRayleigh:
    def test_sobolev_quotient_of_bubble(self, grid3_wide):
        ray = rayleigh_constants(grid3_wide, 2.0)
        assert abs(ray.S - sobolev_constant(3)) < 0.005 * sobolev_constant(3)

    def test_zero_q_ground_guarded(self, grid3):
        z = RadialField.from_values(grid3, np.zeros(grid3.n), origin=0.0)
        with pytest.raises(InvalidParameter):
            rayleigh_constants(grid3, 2.0, q=4.0, q_ground=z)

    def test_sq_dilation_stationarity(self, q4_ground):
        # Pohozaev: the H1 quotient is stationary under dilations at the ground state
        g = q4_ground.grid
        from choquard_lab.grid import gradient_seminorm
        K = gradient_seminorm(q4_ground)
        M = integrate(g, q4_ground.values ** 2)
        P = integrate(g, q4_ground.values ** 4)

        def quotient(t):
            return (t ** 1 * K + t ** 3 * M) / (t ** 3 * P) ** (2 / 4.0)

        h = 1e-4
        dq = (quotient(1 + h) - quotient(1 - h)) / (2 * h)
        assert abs(dq) < 1e-3 * quotient(1.0)

    def test_sq_value_from_ground_state(self, q4_ground):
        ray = rayleigh_constants(q4_ground.grid, 2.0, q=4.0, q_ground=q4_ground)
        # S_q = ||Q||_{H1}^2 / ||Q||_q^2 with Nehari makes S_q^(q/(q-2)) = ||Q||^2
        from choquard_lab.grid import gradient_seminorm
        K = gradient_seminorm(q4_ground)
        M = integrate(q4_ground.grid, q4_ground.values ** 2)
        assert np.isclose(ray.S_q ** 2, K + M, rtol=1e-5)


class TestCoefficientTable:
    @pytest.mark.parametrize("S_alpha", [-1.0, np.nan])
    def test_s_alpha_must_be_positive_and_finite(self, S_alpha):
        # -1 made crit_level_hls complex, (-0.283-0.283j), and NaN passed through
        with pytest.raises(InvalidParameter):
            coefficient_table(3, 2.0, 2.0, 4.0, S_alpha=S_alpha)

    @pytest.mark.parametrize("C_Nq,C_Np", [(-1.0, None), (np.nan, None),
                                           (None, -1.0), (None, np.nan)])
    def test_gn_constants_must_be_positive_and_finite(self, C_Nq, C_Np):
        # C_Nq = -1 made K_q complex, (-0.209+0.039j), and NaN passed through
        with pytest.raises(InvalidParameter):
            coefficient_table(3, 2.0, 2.0, 3.0, S_alpha=7.7, C_Nq=C_Nq, C_Np=C_Np)

    def test_gamma_q_example(self):
        tab = coefficient_table(3, 2.0, 2.0, 4.0, S_alpha=7.7)
        assert np.isclose(tab.gamma_q, 0.75, rtol=1e-14)

    def test_eta_p_example(self):
        tab = coefficient_table(3, 1.0, 2.0, 3.0, S_alpha=9.0)
        assert np.isclose(tab.eta_p, 0.5, rtol=1e-14)

    def test_boundary_q_rejected(self):
        with pytest.raises(InvalidParameter):
            coefficient_table(3, 2.0, 2.0, 2.0, S_alpha=7.7)

    @given(q1=st.floats(2.05, 5.9), q2=st.floats(2.05, 5.9))
    @settings(max_examples=30, deadline=None)
    def test_gamma_q_monotone(self, q1, q2):
        if abs(q1 - q2) < 1e-6:
            return
        g = lambda q: 3 * (q - 2) / (2 * q)
        assert (g(q1) - g(q2)) * (q1 - q2) > 0

    @given(p1=st.floats(1.68, 4.9), p2=st.floats(1.68, 4.9))
    @settings(max_examples=30, deadline=None)
    def test_eta_p_monotone(self, p1, p2):
        if abs(p1 - p2) < 1e-6:
            return
        e = lambda p: (3 * p - 3 - 2.0) / (2 * p)
        assert (e(p1) - e(p2)) * (p1 - p2) > 0

    def test_crit_levels(self):
        tab = coefficient_table(3, 2.0, 2.5, 4.0, S_alpha=7.7)
        assert np.isclose(tab.crit_level_hls,
                          (2 + 2.0) / (2 * (3 + 2.0)) * 7.7 ** ((3 + 2.0) / (2 + 2.0)),
                          rtol=1e-14)
        S = sobolev_constant(3)
        assert np.isclose(tab.crit_level_sob, S ** 1.5 / 3, rtol=1e-14)

    def test_kq_matches_direct_maximization(self):
        # oracle: maximize the constrained lower-bound profile directly
        N, alpha, q = 3, 2.0, 3.0
        S_alpha, C_Nq = 7.7, 1.31
        varpi = 0.01
        tab = coefficient_table(N, alpha, 2.5, q, S_alpha=S_alpha, C_Nq=C_Nq)
        t2a = (N + alpha) / (N - 2)
        gam = tab.gamma_q

        def neg_f(rho):
            return -(0.5 - C_Nq ** q / q * varpi * rho ** (q * gam / 2 - 1)
                     - S_alpha ** (-t2a) / (2 * t2a) * rho ** (t2a - 1))

        res = minimize_scalar(neg_f, bounds=(1e-8, 1e4), method="bounded",
                              options={"xatol": 1e-12})
        direct = -res.fun
        power = 2 * (t2a - 1) / (2 * t2a - q * gam)
        predicted = 0.5 - tab.K_q * varpi ** power
        assert np.isclose(direct, predicted, rtol=1e-7)

    def test_kp_matches_direct_maximization(self):
        N, alpha, p = 4, 1.0, 1.4
        S = sobolev_constant(N)
        C_Np = 1.2
        varpi = 0.02
        tab = coefficient_table(N, alpha, p, 2 * N / (N - 2), S_alpha=9.0, S=S, C_Np=C_Np)
        Ca = interaction_bound_constant(N, alpha)
        peta = p * tab.eta_p
        two_star = 2 * N / (N - 2)

        def neg_f(rho):
            return -(0.5 - varpi / (2 * p) * Ca * C_Np ** (2 * p) * rho ** (peta - 1)
                     - S ** (-two_star / 2) / two_star * rho ** ((two_star - 2) / 2))

        res = minimize_scalar(neg_f, bounds=(1e-8, 1e5), method="bounded",
                              options={"xatol": 1e-12})
        direct = -res.fun
        power = 2.0 / (N - peta * (N - 2))
        predicted = 0.5 - tab.K_p * varpi ** power
        assert np.isclose(direct, predicted, rtol=1e-7)

    def test_smallness_bound_consistency(self):
        # the nu bound is exactly where the maximum crosses zero
        tab = coefficient_table(3, 2.0, 2.5, 3.0, S_alpha=7.7, C_Nq=1.31)
        t2a = 5.0
        power = 2 * (t2a - 1) / (2 * t2a - 3 * tab.gamma_q)
        at_bound = 0.5 - tab.K_q * tab.nu_bound_hls ** power
        assert abs(at_bound) < 1e-12


class TestGNConstant:
    @pytest.mark.parametrize("q_norm2", [-1.0, 0.0])
    def test_norm_must_be_positive(self, q_norm2):
        # -1 returned 0.937 and 0 divided by zero
        with pytest.raises(InvalidParameter):
            gn_constant(3, 4.0, q_norm2)

    def test_saturation_at_ground_state(self, q4_ground):
        g = q4_ground.grid
        from choquard_lab.grid import gradient_seminorm
        l2 = np.sqrt(integrate(g, q4_ground.values ** 2))
        C = gn_constant(3, 4.0, l2)
        lhs = integrate(g, q4_ground.values ** 4) ** 0.25
        gam = 3 * (4 - 2) / (2 * 4)
        rhs = C * gradient_seminorm(q4_ground) ** (gam / 2) * l2 ** (1 - gam)
        assert abs(lhs / rhs - 1.0) < 0.01

    def test_gn_bound_random_fields(self, grid3, rng):
        q = 3.5
        from choquard_lab.grid import gradient_seminorm
        gam = 3 * (q - 2) / (2 * q)
        qq = None
        from choquard_lab.solver import shoot_local_ground_state
        Qq = shoot_local_ground_state(3, q)
        C = gn_constant(3, q, np.sqrt(integrate(Qq.grid, Qq.values ** 2)))
        for _ in range(10):
            vals = sum(a * np.exp(-((grid3.r - c) / w) ** 2)
                       for a, c, w in zip(rng.uniform(0.1, 2, 3),
                                          rng.uniform(0, 6, 3),
                                          rng.uniform(0.5, 3, 3)))
            u = RadialField.from_values(grid3, vals)
            lhs = integrate(grid3, vals ** q) ** (1 / q)
            rhs = (C * gradient_seminorm(u) ** (gam / 2)
                   * integrate(grid3, vals ** 2) ** ((1 - gam) / 2))
            assert lhs <= rhs * (1 + 1e-4)

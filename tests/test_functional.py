from dataclasses import replace

import numpy as np
import pytest

from choquard_lab.errors import InvalidParameter, NoProjection, UndefinedDefect
from choquard_lab.functional import (Parts, ProblemParams, compute_parts,
                                     energy_breakdown, energy_from_parts,
                                     fiber_energy, fiber_profile, nehari_project)
from choquard_lab.grid import RadialField, integrate, make_grid
from choquard_lab.profiles import gaussian, talenti


def params_lambda(lam=1.0, p=2.0, q=3.0):
    return ProblemParams(N=3, alpha=2.0, p=p, q=q, mode="lambda", lam=lam)


class TestProblemParams:
    def test_mode_validation(self):
        with pytest.raises(InvalidParameter):
            ProblemParams(N=3, alpha=2.0, p=2.0, q=3.0, mode="bogus")

    def test_non_integer_dimension_rejected(self):
        with pytest.raises(InvalidParameter, match="integer"):
            ProblemParams(N=3.5, alpha=2.0, p=2.0, q=3.0)

    def test_exponent_ranges(self):
        with pytest.raises(InvalidParameter):
            ProblemParams(N=3, alpha=2.0, p=6.0, q=3.0)  # p > (N+alpha)/(N-2)
        with pytest.raises(InvalidParameter):
            ProblemParams(N=3, alpha=2.0, p=2.0, q=7.0)  # q > 2*

    def test_normalized_mode_pins_critical_exponent(self):
        with pytest.raises(InvalidParameter):
            ProblemParams(N=3, alpha=2.0, p=2.0, q=3.0, mode="normalized-hls", nu=0.1)
        ok = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=0.1)
        assert ok.two_alpha_star == 5.0

    @pytest.mark.parametrize("mode,kw", [
        ("lambda", {"lam": -1.0}), ("lambda", {"lam": 1.0, "mu": -1.0}),
        ("mu", {"mu": -1.0}), ("mu", {"mu": 1.0, "lam": -1.0}),
        ("general", {"mu": -1.0, "lam": 1.0}), ("general", {"mu": 1.0, "lam": -1.0}),
        ("normalized-hls", {"nu": 0.1, "lam": -1.0}),
        ("normalized-sobolev", {"nu": 0.1, "mu": -1.0}),
        ("lambda", {"lam": 1.0, "nu": -1.0}), ("mu", {"mu": 1.0, "nu": -1.0}),
        ("general", {"nu": -1.0})])
    def test_negative_couplings_rejected(self, mode, kw):
        # a negative coupling can give the ray fiber a maximum and a minimum
        # (general, p = q = 3, mu = -1: at t ~ 0.2 and t ~ 2.1 for parts
        # (1, 1, 1, 10)), so the Nehari projection would not be unique
        p, q = {"normalized-hls": (5.0, 3.0), "normalized-sobolev": (2.0, 6.0)}.get(
            mode, (3.0, 3.0))
        with pytest.raises(InvalidParameter):
            ProblemParams(N=3, alpha=2.0, p=p, q=q, mode=mode, **kw)

    @pytest.mark.parametrize("kw", [
        {"mode": "lambda", "lam": np.nan}, {"mode": "mu", "mu": np.nan},
        {"mode": "general", "nu": np.nan}, {"mode": "general", "a": np.nan},
        {"mode": "general", "mass_coeff": np.nan}],
        ids=["lam", "mu", "nu", "a", "mass_coeff"])
    def test_non_finite_couplings_rejected(self, kw):
        # NaN passes every sign check (lam < 0 is False for lam = nan)
        with pytest.raises(InvalidParameter):
            ProblemParams(N=3, alpha=2.0, p=3.0, q=3.0, **kw)

    def test_derived_exponents(self):
        pp = ProblemParams(N=3, alpha=1.0, p=2.0, q=4.0)
        assert pp.two_star == 6.0
        assert pp.two_alpha_star == 4.0
        assert np.isclose(pp.gamma_q, 0.75)
        assert np.isclose(pp.eta_p, 0.5)

    @pytest.mark.parametrize("mode,p,q,coeffs", [
        ("lambda", 3.0, 3.0, (1.0, 0.3)), ("mu", 3.0, 3.0, (0.7, 1.0)),
        ("general", 3.0, 3.0, (0.7, 0.3)), ("normalized-hls", 5.0, 3.0, (1.0, 1.1)),
        ("normalized-sobolev", 2.0, 6.0, (1.1, 1.0))],
        ids=["lambda", "mu", "general", "normalized-hls", "normalized-sobolev"])
    def test_mode_coefficients(self, mode, p, q, coeffs):
        # (riesz_coeff, power_coeff) written out by hand, with lam, mu and nu
        # distinct so a coefficient read from the wrong field shows
        pp = ProblemParams(N=3, alpha=2.0, p=p, q=q, mode=mode, lam=0.3, mu=0.7, nu=1.1)
        assert (pp.riesz_coeff, pp.power_coeff) == coeffs


class TestEnergyBreakdown:
    def test_coefficient_audit_lambda(self):
        # parts (K,M,R,P) = (1,1,1,1), p=2, q=3, lam=1: total = 1 - 1/4 - 1/3
        parts = Parts(kinetic=1.0, mass=1.0, riesz=1.0, power=1.0)
        total = energy_from_parts(params_lambda(), parts)
        assert np.isclose(total, 1 - 0.25 - 1 / 3, rtol=1e-14)

    def test_coefficient_audit_normalized_hls(self):
        pp = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=0.7)
        parts = Parts(kinetic=1.0, mass=1.0, riesz=1.0, power=1.0)
        total = energy_from_parts(pp, parts)
        assert np.isclose(total, 0.5 - 1 / 10 - 0.7 / 3, rtol=1e-14)

    def test_zero_field(self, grid3):
        z = RadialField.from_values(grid3, np.zeros(grid3.n), origin=0.0)
        parts = compute_parts(params_lambda(), z)
        total = energy_from_parts(params_lambda(), parts)
        assert parts.kinetic == parts.mass == parts.riesz == parts.power == total == 0.0

    def test_total_reconstructs_from_parts(self, grid3):
        u = gaussian(grid3)
        pp = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general", mu=0.3, lam=0.9)
        bd = energy_breakdown(pp, u)
        manual = (0.5 * (bd.kinetic + bd.mass) - 0.3 / 4 * bd.riesz - 0.9 / 4 * bd.power)
        assert np.isclose(bd.total, manual, rtol=1e-12)


class TestDefects:
    def test_shooting_solution_defects(self, q4_ground):
        pp = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general", mu=0.0, lam=1.0)
        bd = energy_breakdown(pp, q4_ground)
        nd, pd = bd.nehari_defect, bd.pohozaev_defect
        assert abs(nd) < 1e-6
        assert abs(pd) < 1e-6

    def test_scaled_field_defect_formula(self, q4_ground):
        # u = 2 Q: nehari defect = 4K + 4M - 2^q P against the scaled parts
        pp = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general", mu=0.0, lam=1.0)
        parts = compute_parts(pp, q4_ground)
        doubled = RadialField.from_values(q4_ground.grid, 2 * q4_ground.values,
                                          deriv=2 * q4_ground.deriv)
        nd = energy_breakdown(pp, doubled).nehari_defect
        K, M, P = parts.kinetic, parts.mass, parts.power
        expect = 4 * K + 4 * M - 2 ** 4 * P
        scale = max(4 * K, 4 * M, 16 * P)
        assert np.isclose(nd, expect / scale, rtol=1e-10)
        assert nd < 0  # scaling up goes past the manifold for q > 2

    def test_zero_field_raises(self, grid3):
        z = RadialField.from_values(grid3, np.zeros(grid3.n), origin=0.0)
        with pytest.raises(UndefinedDefect):
            energy_breakdown(params_lambda(), z)


class TestNehariProject:
    def test_local_only_closed_form(self, grid3):
        # B = 0: t* = (A / (lam C))^(1/(q-2))
        pp = ProblemParams(N=3, alpha=2.0, p=2.0, q=3.0, mode="general",
                           mu=0.0, lam=2.0)
        u = gaussian(grid3)
        parts = compute_parts(pp, u)
        A = parts.kinetic + parts.mass
        t_expect = (A / (2.0 * parts.power)) ** (1.0 / (3 - 2))
        t_star, proj = nehari_project(pp, u)
        assert np.isclose(t_star, t_expect, rtol=1e-12)
        nd = energy_breakdown(pp, proj).nehari_defect
        assert abs(nd) < 1e-12

    def test_choquard_only_closed_form(self, grid3):
        # C = 0: t* = (A/(mu B))^(1/(2p-2)); normalized so A = 4 mu B gives t* = 2
        pp = ProblemParams(N=3, alpha=2.0, p=2.0, q=3.0, mode="general",
                           mu=1.0, lam=0.0)
        u = gaussian(grid3)
        parts = compute_parts(pp, u)
        A = parts.kinetic + parts.mass
        mu = A / (4.0 * parts.riesz)
        pp = replace(pp, mu=mu)
        t_star, _ = nehari_project(pp, u)
        assert np.isclose(t_star, 2.0, rtol=1e-12)

    def test_mixed_root_against_bisection(self, grid3):
        # A = 2, B = C = 1 (after coupling normalization), p=2, q=3:
        # 2 t^2 = t^4 + t^3  ->  t ~ 0.8392867552
        pp = ProblemParams(N=3, alpha=2.0, p=2.0, q=3.0, mode="general",
                           mu=1.0, lam=1.0)
        u = gaussian(grid3)
        parts = compute_parts(pp, u)
        A = parts.kinetic + parts.mass
        pp = replace(pp, mu=0.5 * A / parts.riesz, lam=0.5 * A / parts.power)
        t_star, _ = nehari_project(pp, u)
        # brute-force bisection oracle on 2 t^2 = t^4 + t^3
        f = lambda t: t ** 4 + t ** 3 - 2 * t ** 2
        lo, hi = 0.5, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert np.isclose(t_star, 0.5 * (lo + hi), rtol=1e-10)

    def test_no_projection(self, grid3):
        pp = ProblemParams(N=3, alpha=2.0, p=2.0, q=3.0, mode="general",
                           mu=0.0, lam=0.0)
        # the message states the range the ray root is sought in, [2^-46, 2^46]
        with pytest.raises(NoProjection, match=r"\[1\.4e-14, 7e\+13\]"):
            nehari_project(pp, gaussian(grid3))

    def test_negative_linear_part_raises_no_projection(self):
        # K + mc M <= 0: the ray derivative never changes sign
        pp = ProblemParams(N=3, alpha=2.0, p=2.0, q=3.0, mode="general",
                           mu=1.0, lam=1.0, mass_coeff=-50.0)
        with pytest.raises(NoProjection):
            nehari_project(pp, gaussian(make_grid(3, 25.0, 300, 2.0)))

    def test_normalized_mode_rejected(self, grid3):
        pp = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=0.1)
        with pytest.raises(InvalidParameter):
            nehari_project(pp, gaussian(grid3))


class TestFibers:
    def test_dilation_at_unit_t_matches_breakdown(self, grid3):
        pp = params_lambda()
        u = gaussian(grid3)
        prof = fiber_profile(pp, u, "dilation", np.array([1.0, 2.0]))
        bd = energy_breakdown(pp, u)
        assert np.isclose(prof.energies[0], bd.total, rtol=1e-12)

    def test_mass_fiber_mass_constant(self):
        pp = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=0.2)
        parts = Parts(kinetic=2.0, mass=1.0, riesz=0.5, power=1.5)
        ts = np.geomspace(0.1, 10, 30)
        # the mass part scales with exponent 0: energies depend on it nowhere
        e1 = fiber_energy(pp, parts, "mass", ts)
        parts2 = Parts(kinetic=2.0, mass=99.0, riesz=0.5, power=1.5)
        e2 = fiber_energy(pp, parts2, "mass", ts)
        assert np.allclose(e1, e2, rtol=0, atol=1e-12)

    def test_mass_fiber_term_audit(self):
        # term-by-term t^2, t^(2 2a*), t^(q gamma_q) for the constrained energy
        pp = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=0.7)
        parts = Parts(kinetic=1.3, mass=1.0, riesz=0.4, power=2.1)
        t = 1.7
        expect = (0.5 * t ** 2 * 1.3 - t ** 10 / 10 * 0.4
                  - 0.7 / 3 * t ** (3 * pp.gamma_q) * 2.1)
        assert np.isclose(fiber_energy(pp, parts, "mass", t), expect, rtol=1e-14)

    def test_ray_fiber_max_at_projection(self, grid3):
        pp = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general", mu=1.0, lam=1.0)
        u = gaussian(grid3)
        t_star, _ = nehari_project(pp, u)
        prof = fiber_profile(pp, u, "ray", np.geomspace(t_star / 5, t_star * 5, 50))
        assert len(prof.critical_ts) == 1
        assert np.isclose(prof.critical_ts[0], t_star, rtol=1e-8)
        assert prof.second_derivative_signs[0] == -1

    def test_empty_fiber_grid(self, grid3):
        with pytest.raises(InvalidParameter):
            fiber_profile(params_lambda(), gaussian(grid3), "ray", np.array([]))

    def test_infinite_fiber_point_rejected(self, grid3):
        # it warned and returned a NaN energy
        with pytest.raises(InvalidParameter):
            fiber_profile(params_lambda(), gaussian(grid3), "ray", [np.inf, 1.0])


class TestMassFiberClassify:
    # the P+/P0/P- points of the mass fiber are fiber_profile's signs
    def _normalized(self, grid, nu, a=1.0):
        return ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                             nu=nu, a=a)

    def _on_sphere(self, grid, a=1.0, width=3.0):
        u = gaussian(grid, width=width)
        m = integrate(grid, u.values ** 2)
        return RadialField.from_values(grid, u.values * np.sqrt(a ** 2 / m))

    def test_two_points_below_smallness(self, grid3):
        pp = self._normalized(grid3, nu=0.05)
        u = self._on_sphere(grid3)
        prof = fiber_profile(pp, u, "mass", [1e-6, 1e6])
        assert prof.second_derivative_signs == (1, -1)
        t_plus, t_minus = prof.critical_ts
        assert t_plus < t_minus
        # the fiber level at the min is below the value at the max
        parts = compute_parts(pp, u)
        e_plus = fiber_energy(pp, parts, "mass", t_plus)
        e_minus = fiber_energy(pp, parts, "mass", t_minus)
        assert e_plus < 0 < e_minus

    def test_pure_critical_single_max(self, grid3):
        pp = self._normalized(grid3, nu=0.0)
        u = self._on_sphere(grid3)
        prof = fiber_profile(pp, u, "mass", [1e-6, 1e6])
        assert prof.second_derivative_signs == (-1,)

import math

import mpmath as mp
import numpy as np
import pytest

from choquard_lab import testfn
from choquard_lab.asymptotics import rate_fit, _lsq_fit
from choquard_lab.errors import InvalidParameter, ResolutionError
from choquard_lab.grid import integrate, make_grid, sphere_surface
from choquard_lab.profiles import talenti, talenti_peak
from choquard_lab.testfn import BubbleSpec, bubble, bubble_report, bubble_sweep, mass_radius


def mp_mass(N, eps, R):
    """||V_eps||_2^2 at 30 digits: mpmath quad of W_eps(r)^2 phi(r/R)^2 r^(N-1)
    over [0, eps, R, 2R], with the quintic cutoff written out."""
    with mp.workdps(30):
        eps, R = mp.mpf(eps), mp.mpf(R)
        c = mp.mpf(N * (N - 2)) ** (mp.mpf(N - 2) / 2)

        def f(r):
            t = min(max(r / R - 1, 0), 1)
            phi = 1 - t ** 3 * (10 - 15 * t + 6 * t ** 2)
            return c * eps ** (2 - N) * (1 + (r / eps) ** 2) ** (2 - N) * phi ** 2 * r ** (N - 1)

        area = 2 * mp.pi ** (mp.mpf(N) / 2) / mp.gamma(mp.mpf(N) / 2)
        return area * mp.quad(f, [0, eps, R, 2 * R])


def mass(N, eps, R):
    return sphere_surface(N) * talenti_peak(N) ** 2 * eps ** 2 * testfn._shape(N, R / eps)[0]


def mass_supremum(N, eps):
    """The R -> inf mass at N >= 5: the core over [0, pi/2] in theta, a Beta integral."""
    beta = math.gamma(N / 2) * math.gamma((N - 4) / 2) / math.gamma(N - 2)
    return sphere_surface(N) * talenti_peak(N) ** 2 * eps ** 2 * beta / 2


class TestBubbleSpec:
    def test_scale_separation_enforced(self):
        with pytest.raises(InvalidParameter):
            BubbleSpec(N=3, eps=0.5, R=1.0)

    def test_bad_eps(self):
        with pytest.raises(InvalidParameter):
            BubbleSpec(N=3, eps=-0.1, R=2.0)

    @pytest.mark.parametrize("eps, R", [(np.nan, 2.0), (0.1, np.nan)], ids=["eps", "R"])
    def test_nan_scales_rejected(self, eps, R):
        # NaN passes every comparison-based check
        with pytest.raises(InvalidParameter):
            BubbleSpec(N=3, eps=eps, R=R)


class TestBubble:
    def test_peak_value(self):
        g = make_grid(3, 20.0, 1200, 3.0)
        eps = 0.1
        V = bubble(BubbleSpec(N=3, eps=eps, R=5.0), g)
        assert np.isclose(V.origin, eps ** -0.5 * talenti_peak(3), rtol=1e-12)

    def test_support_inside_cutoff(self):
        g = make_grid(3, 30.0, 1200, 3.0)
        V = bubble(BubbleSpec(N=3, eps=0.1, R=5.0), g)
        assert np.all(V.values[g.r > 10.0] == 0.0)
        assert np.all(V.values[g.r < 5.0] > 0.0)

    def test_inactive_cutoff_recovers_core(self):
        g = make_grid(3, 10.0, 800, 2.0)
        V = bubble(BubbleSpec(N=3, eps=0.2, R=12.0), g)  # phi == 1 on the grid
        W = talenti(g, 0.2)
        assert np.allclose(V.values, W.values, rtol=1e-14)

    def test_resolution_guards(self):
        g = make_grid(3, 10.0, 100, 1.0)  # first node 0.1
        with pytest.raises(ResolutionError):
            bubble(BubbleSpec(N=3, eps=0.05, R=2.0), g)
        g2 = make_grid(3, 3.0, 400, 2.0)
        with pytest.raises(ResolutionError):
            bubble(BubbleSpec(N=3, eps=0.05, R=2.0), g2)  # r_max < 2R


class TestMassRadius:
    def test_calibration_hits_target(self):
        a, eps = 3.0, 0.05
        R = mass_radius(3, a, eps)
        grid = make_grid(3, 2.5 * R, 2400, 3.0)
        V = bubble(BubbleSpec(N=3, eps=eps, R=R), grid)
        m = integrate(grid, V.values ** 2)
        assert abs(m - a ** 2) < 1e-6 * a ** 2

    def test_zero_mass_rejected(self):
        with pytest.raises(InvalidParameter):
            mass_radius(3, 0.0, 0.1)

    @pytest.mark.parametrize("a, eps", [(np.nan, 0.1), (3.0, np.nan)], ids=["a", "eps"])
    def test_nan_rejected(self, a, eps):
        # a NaN eps made the bracket search loop forever, a NaN a ended in
        # scipy's ValueError
        with pytest.raises(InvalidParameter):
            mass_radius(3, a, eps)

    def test_overflowing_peak_rejected(self):
        # the mass scales with talenti_peak(N)^2, which passes the largest
        # double at N = 145: N = 150 raised a bare OverflowError
        assert np.isfinite(talenti_peak(144) ** 2)
        for call in (lambda: mass_radius(150, 1.0, 0.1), lambda: talenti_peak(145)):
            with pytest.raises(InvalidParameter):
                call()

    @pytest.mark.parametrize("N", [2, 3.5, 3.0, True], ids=["2", "3.5", "float", "bool"])
    def test_impossible_dimension_rejected(self, N):
        # no Talenti bubble below N = 3, and the closed core needs an integer N
        with pytest.raises(InvalidParameter):
            mass_radius(N, 3.0, 0.1)

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("eps", [0.006, 0.05, 0.2])
    def test_mass_matches_mpmath(self, N, eps):
        for X in np.geomspace(4.0, 1000.0, 4):
            ref = mp_mass(N, eps, X * eps)
            assert float(abs(mass(N, eps, X * eps) - ref) / ref) < 1e-13

    @pytest.mark.parametrize("N, a, eps", [(3, 3.0, 0.006), (3, 3.0, 0.2), (4, 1.8, 0.055),
                                           (4, 2.2, 0.07), (5, None, 0.05)])
    def test_radius_hits_target_mass_by_mpmath(self, N, a, eps):
        # at N = 5 a target at 80 % of the bounded mass
        a = a or math.sqrt(0.8 * mass_supremum(N, eps))
        R = mass_radius(N, a, eps)
        assert float(abs(mp_mass(N, eps, R) - a ** 2)) < 1e-13 * a ** 2

    @pytest.mark.parametrize("N", [5, 6])
    def test_mass_above_the_bounded_limit_rejected_at_once(self, N, monkeypatch):
        eps = 0.05
        sup = mass_supremum(N, eps)
        # the mass rises to sup with R, short of it by O((R/eps)^(4-N))
        assert mass(N, eps, 1e6 * eps) < sup
        assert mass(N, eps, 1e12 * eps) == pytest.approx(sup, rel=1e-10)
        calls = []
        shape = testfn._shape
        monkeypatch.setattr(testfn, "_shape", lambda *a: calls.append(a) or shape(*a))
        with pytest.raises(InvalidParameter):
            mass_radius(N, math.sqrt(sup * (1 + 1e-12)), eps)
        # the bracket's lower end against the closed limit, and no search
        assert len(calls) <= 1

    @pytest.mark.parametrize("N", [5, 6, 7, 8, 9])
    @pytest.mark.parametrize("gap", [1e-4, 1e-8, 1e-12])
    def test_target_near_the_bounded_limit(self, N, gap, monkeypatch):
        # Newton on log J took 10 to 54 _shape calls this close to the limit,
        # 54 at N = 5 and gap 1e-12; on the log of the deficit it takes a few
        eps = 0.05
        a = math.sqrt(mass_supremum(N, eps) * (1 - gap))
        calls = []
        shape = testfn._shape
        monkeypatch.setattr(testfn, "_shape", lambda *a: calls.append(a) or shape(*a))
        R = mass_radius(N, a, eps)
        assert len(calls) <= 12
        assert float(abs(mp_mass(N, eps, R) - a ** 2)) < 1e-13 * a ** 2

    def test_unreachable_mass_rejected(self):
        # huge eps with tiny mass: already exceeded at R = 4 eps
        with pytest.raises(InvalidParameter):
            mass_radius(3, 0.01, 5.0)

    def test_dim3_inverse_eps_law(self):
        # R_eps ~ a^2/eps up to constants: log-log slope -1
        a = 2.0
        eps = np.geomspace(0.01, 0.1, 6)
        R = [mass_radius(3, a, e) for e in eps]
        fit = rate_fit(eps, R, min_span_decades=0.9)
        assert abs(fit.slope - (-1.0)) < 0.05

    def test_dim4_exponential_law(self):
        # ln(R/eps) linear in eps^-2 with slope proportional to a^2; masses
        # large enough that the scales stay separated (the L2 mass of the
        # 4d bubble only grows logarithmically in the cutoff)
        slopes = {}
        for a in (1.8, 2.2):
            eps = np.linspace(0.055, 0.085, 5)
            R = np.array([mass_radius(4, a, e) for e in eps])
            x = eps ** -2.0
            y = np.log(R / eps)
            slope, _, r2 = _lsq_fit(x, y)
            assert r2 > 0.999
            slopes[a] = slope
        assert np.isclose(slopes[1.8] / slopes[2.2], (1.8 / 2.2) ** 2, rtol=0.05)


class TestBubbleReport:
    def test_kinetic_approaches_leading_constant(self):
        from choquard_lab.constants import sobolev_constant
        S = sobolev_constant(3)
        devs = []
        for eps in (0.2, 0.05):
            R = mass_radius(3, 3.0, eps)
            g = make_grid(3, 2.5 * R, 1600, 3.0)
            rep = bubble_report(bubble(BubbleSpec(N=3, eps=eps, R=R), g))
            devs.append(abs(rep.kinetic - S ** 1.5))
        assert devs[1] < devs[0]
        assert devs[1] < 0.03 * S ** 1.5

    def test_sobolev_power_converges_faster(self):
        from choquard_lab.constants import sobolev_constant
        S = sobolev_constant(3)
        eps = 0.05
        R = mass_radius(3, 3.0, eps)
        g = make_grid(3, 2.5 * R, 1600, 3.0)
        rep = bubble_report(bubble(BubbleSpec(N=3, eps=eps, R=R), g))
        # the 2*-norm correction is O((R/eps)^-N), the gradient one O((R/eps)^(2-N))
        assert abs(rep.sobolev_power - S ** 1.5) < abs(rep.kinetic - S ** 1.5)


class TestBubbleSweep:
    def test_unresolved_eps_is_a_resolution_error(self):
        # a uniform 64-node grid out to 2.5 R_eps has its first node far above eps / 4
        with pytest.raises(ResolutionError, match="above eps/4"):
            bubble_sweep(3, 3.0, [0.001], n=64, grading=1.0)

"""Property tests of the four-part algebra over the admissible (N, alpha, p, q)
box: the energy, the defects, the fiber energies and their derivatives are
one coefficient sum, checked against the per-mode formulas written out."""

from hypothesis import given, settings
from hypothesis import strategies as st

from choquard_lab.functional import (Parts, ProblemParams, _defects_from_parts,
                                     _fiber_derivative, _fiber_roots, _ray_root,
                                     energy_from_parts, fiber_energy)

KINDS = ("ray", "dilation", "mass")
MODES = ("lambda", "mu", "general", "normalized-hls", "normalized-sobolev")


# ------------------------------------------------------------- the oracle

def exponents(pp, kind):
    N, alpha, p, q = pp.N, pp.alpha, pp.p, pp.q
    return {"ray": (2.0, 2.0, 2.0 * p, q),
            "dilation": (N - 2.0, float(N), N + alpha, float(N)),
            "mass": (2.0, 0.0, N * p - N - alpha, q * pp.gamma_q)}[kind]


def oracle_energy(pp, parts, kind="ray", t=1.0):
    """Per-mode fiber energy, one formula per mode."""
    p, q = pp.p, pp.q
    eK, eM, eR, eP = exponents(pp, kind)
    K, M, R, P = parts.kinetic, parts.mass, parts.riesz, parts.power
    if pp.mode == "normalized-hls":
        return (0.5 * t ** eK * K - t ** eR * R / (2 * pp.two_alpha_star)
                - pp.nu / q * t ** eP * P)
    if pp.mode == "normalized-sobolev":
        return 0.5 * t ** eK * K - pp.nu / (2 * p) * t ** eR * R - t ** eP * P / pp.two_star
    cR = {"lambda": 1.0, "mu": pp.mu, "general": pp.mu}[pp.mode]
    cP = {"lambda": pp.lam, "mu": 1.0, "general": pp.lam}[pp.mode]
    return (0.5 * (t ** eK * K + pp.mass_coeff * t ** eM * M)
            - cR / (2 * p) * t ** eR * R - cP / q * t ** eP * P)


def oracle_defects(pp, parts):
    """Nehari (or P_nu) and Pohozaev defects, relative to the largest term."""
    N, alpha, p, q = pp.N, pp.alpha, pp.p, pp.q
    K, M, R, P = parts.kinetic, parts.mass, parts.riesz, parts.power
    cR, cP = pp.riesz_coeff, pp.power_coeff
    if pp.normalized:
        if pp.mode == "normalized-hls":
            first = K - cR * R - pp.nu * pp.gamma_q * P
        else:
            first = K - pp.nu * pp.eta_p * R - P
        lam_hat = (cR * R + cP * P - K) / pp.a ** 2
        poho = (0.5 * (N - 2) * K + 0.5 * N * lam_hat * M
                - (N + alpha) / (2 * p) * cR * R - N / q * cP * P)
        scale = max(abs(K), abs(cR * R), abs(cP * P), abs(lam_hat) * M, 1e-300)
        return first / scale, poho / scale
    mc = pp.mass_coeff
    first = K + mc * M - cR * R - cP * P
    poho = (0.5 * (N - 2) * K + 0.5 * N * mc * M
            - (N + alpha) / (2 * p) * cR * R - N / q * cP * P)
    scale = max(abs(K), abs(mc * M), abs(cR * R), abs(cP * P), 1e-300)
    return first / scale, poho / scale


# --------------------------------------------------------- the draw

# fractions in (0, 1] that reach both ends of the interval
_edge = st.one_of(st.floats(1e-6, 1e-3), st.floats(1e-3, 1.0), st.floats(1.0 - 1e-3, 1.0))
_coupling = st.floats(1e-3, 1e2)
_part = st.floats(1e-3, 1e3)


@st.composite
def problems(draw):
    N = draw(st.integers(3, 5))
    mode = draw(st.sampled_from(MODES))
    alpha = N * min(max(draw(_edge), 1e-6), 1.0 - 1e-6)
    lo, hi = (N + alpha) / N, (N + alpha) / (N - 2)
    p = hi if mode == "normalized-hls" else min(lo + draw(_edge) * (hi - lo), hi)
    two_star = 2.0 * N / (N - 2)
    q = (two_star if mode == "normalized-sobolev"
         else min(2.0 + draw(_edge) * (two_star - 2.0), two_star))
    pp = ProblemParams(N=N, alpha=alpha, p=p, q=q, mode=mode, lam=draw(_coupling),
                       mu=draw(_coupling), nu=draw(_coupling), a=draw(st.floats(0.1, 10.0)),
                       mass_coeff=draw(st.floats(0.0, 5.0)))
    parts = Parts(kinetic=draw(_part), mass=draw(_part), riesz=draw(_part), power=draw(_part))
    return pp, parts


def _term_size(pp, parts, kind, t):
    """Sum of the magnitudes of the fiber-energy terms (the cancellation-free scale)."""
    m = 0.0 if pp.normalized else pp.mass_coeff
    coeffs = (0.5, 0.5 * m, pp.riesz_coeff / (2 * pp.p), pp.power_coeff / pp.q)
    values = (parts.kinetic, parts.mass, parts.riesz, parts.power)
    return sum(c * t ** e * x for c, e, x in zip(coeffs, exponents(pp, kind), values))


# ------------------------------------------------------------- the tests

class TestFourPartAlgebra:
    @given(problems())
    @settings(max_examples=300, deadline=None)
    def test_energy_is_the_fiber_sum_at_one(self, draw):
        pp, parts = draw
        E = energy_from_parts(pp, parts)
        size = _term_size(pp, parts, "ray", 1.0)
        assert abs(E - oracle_energy(pp, parts)) <= 1e-13 * size
        for kind in KINDS:
            assert abs(float(fiber_energy(pp, parts, kind, 1.0)) - E) <= 1e-13 * size

    @given(problems(), st.floats(0.05, 20.0))
    @settings(max_examples=300, deadline=None)
    def test_fiber_energies_match_the_per_mode_formulas(self, draw, t):
        pp, parts = draw
        for kind in KINDS:
            size = _term_size(pp, parts, kind, t)
            got = float(fiber_energy(pp, parts, kind, t))
            assert abs(got - oracle_energy(pp, parts, kind, t)) <= 1e-12 * size

    @given(problems())
    @settings(max_examples=300, deadline=None)
    def test_defects_are_fiber_derivatives_at_one(self, draw):
        pp, parts = draw
        nd, pd = _defects_from_parts(pp, parts)
        ond, opd = oracle_defects(pp, parts)
        assert abs(nd - ond) <= 1e-13
        assert abs(pd - opd) <= 1e-13

    @given(problems(), st.floats(0.2, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_derivative_matches_centred_difference(self, draw, t):
        pp, parts = draw
        for kind in KINDS:
            d, d2, dscale = _fiber_derivative(pp, parts, kind)
            h = 1e-5 * t
            fd = (fiber_energy(pp, parts, kind, t + h)
                  - fiber_energy(pp, parts, kind, t - h)) / (2 * h)
            assert abs(d(t) - fd) <= 1e-5 * (dscale(t) + abs(fiber_energy(pp, parts, kind, t)))
            fd2 = (d(t + h) - d(t - h)) / (2 * h)
            assert abs(d2(t) - fd2) <= 1e-5 * (dscale(t) / t + abs(d2(t)))

    @given(problems())
    @settings(max_examples=200, deadline=None)
    def test_scanned_roots_zero_the_derivative(self, draw):
        pp, parts = draw
        for kind in KINDS:
            d, _, dscale = _fiber_derivative(pp, parts, kind)
            for t0 in _fiber_roots(d, 1e-3, 1e3, 2001):
                assert 1e-3 <= t0 <= 1e3
                assert abs(d(t0)) <= 1e-10 * dscale(t0)
        if not pp.normalized:
            t_star = _ray_root(pp, parts)
            if t_star is not None:
                # the ray derivative changes sign within brentq's tolerance,
                # up to the roundoff of its terms
                d, _, dscale = _fiber_derivative(pp, parts, "ray")
                tol, eps = 4e-15 + 4e-14 * t_star, 1e-14 * dscale(t_star)
                assert d(t_star - tol) >= -eps and d(t_star + tol) <= eps

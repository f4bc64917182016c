"""Property tests of the four-part algebra over the admissible (N, alpha, p, q)
box: the energy, the defects, the fiber energies and their derivatives are
one coefficient sum, checked against the per-mode formulas written out; the
multiplier, its P_nu + Pohozaev prediction and the rescaled parts come from
the same exponent rows; the fiber critical points lose no root of a dense
sign-change scan, and the Nehari ray root matches a bracketing brentq
oracle."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from choquard_lab.functional import (_RAY_RANGE, Parts, ProblemParams, _defects_from_parts,
                                     _fiber_critical_points, _fiber_sum, _log_root, _ray_root,
                                     _weights, energy_from_parts, fiber_energy,
                                     identity_prediction, multiplier_from_parts, scaled_parts)
from choquard_lab.grid import make_grid
from choquard_lab.solver import _Discrete, _MassSolver

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
        # summed as the ray derivative K - cR R - cP P, so that both sides
        # round the cancellation alike
        lam_hat = -(K - cR * R - cP * P) / pp.a ** 2
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


def _derivative(pp, parts, kind, t, order=1):
    return _fiber_sum(pp, _weights(pp), parts, kind, t, order)


def _derivative_scale(pp, parts, kind, t):
    """Sum of the magnitudes of the first-derivative terms."""
    return _fiber_sum(pp, tuple(abs(g) for g in _weights(pp)), parts, kind, t, 1)


_wide_part = st.floats(1e-30, 1e30)


@st.composite
def wide_problems(draw):
    """`problems` draws; half of them with parts over 60 decades, which puts
    fiber roots outside any window often enough to test the edges."""
    pp, parts = draw(problems())
    if draw(st.booleans()):
        parts = Parts(*(draw(_wide_part) for _ in range(4)))
    return pp, parts


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
    @example((ProblemParams(N=3, alpha=3e-06, p=3.000003, q=2.000004, mode="normalized-hls",
                            nu=0.001, a=0.5), Parts(128, 152, 128, 3)))
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
            h = 1e-5 * t
            d, d2 = _derivative(pp, parts, kind, t), _derivative(pp, parts, kind, t, 2)
            dscale = _derivative_scale(pp, parts, kind, t)
            fd = (fiber_energy(pp, parts, kind, t + h)
                  - fiber_energy(pp, parts, kind, t - h)) / (2 * h)
            assert abs(d - fd) <= 1e-5 * (dscale + abs(fiber_energy(pp, parts, kind, t)))
            fd2 = (_derivative(pp, parts, kind, t + h)
                   - _derivative(pp, parts, kind, t - h)) / (2 * h)
            assert abs(d2 - fd2) <= 1e-5 * (dscale / t + abs(d2))


# -------------------------------------------------- the fiber critical points

def scanned_roots(pp, parts, kind, t_lo=1e-6, t_hi=1e6, samples=20001):
    """The oracle: sign changes of the derivative on a log-spaced scan,
    refined by brentq with its absolute tolerance taken out."""
    ts = np.geomspace(t_lo, t_hi, samples)
    vals = _derivative(pp, parts, kind, ts)
    return [brentq(lambda t: _derivative(pp, parts, kind, t), ts[i], ts[i + 1],
                   xtol=1e-300, rtol=1e-15)
            for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]]


def root_conditioning(pp, parts, kind, t):
    """How far a relative error of 8 ulp in the terms of E' moves its zero:
    8 eps |terms| / |E''|.  Roots where a term is nearly flat, as at q near
    2, are this ill-conditioned in both the oracle and the routine."""
    return (8 * np.finfo(float).eps * _derivative_scale(pp, parts, kind, t)
            / abs(_derivative(pp, parts, kind, t, 2)))


class TestFiberCriticalPoints:
    @given(wide_problems())
    @settings(max_examples=300, deadline=None)
    def test_roots_zero_the_derivative(self, draw):
        pp, parts = draw
        for kind in KINDS:
            points = _fiber_critical_points(pp, parts, kind)
            for t0, _ in points:
                assert 1e-6 <= t0 <= 1e6
                assert abs(_derivative(pp, parts, kind, t0)) <= \
                    1e-10 * _derivative_scale(pp, parts, kind, t0)
            # at most two, and two only on the mass fiber: P+ before P-
            ts = [t0 for t0, _ in points]
            assert ts == sorted(ts) and len(ts) <= (2 if kind == "mass" else 1)
            if len(points) == 2:
                assert [sign for _, sign in points] == [1, -1]
        if not pp.normalized:
            t_star = _ray_root(pp, parts)
            if t_star is not None:
                # the ray derivative changes sign within the root's tolerance,
                # up to the roundoff of its terms
                tol = 4e-15 + 4e-14 * t_star
                eps = 1e-14 * _derivative_scale(pp, parts, "ray", t_star)
                assert _derivative(pp, parts, "ray", t_star - tol) >= -eps
                assert _derivative(pp, parts, "ray", t_star + tol) <= eps

    @given(wide_problems())
    @settings(max_examples=150, deadline=None)
    def test_no_scanned_root_is_lost(self, draw):
        pp, parts = draw
        for kind in KINDS:
            ts = [t0 for t0, _ in _fiber_critical_points(pp, parts, kind)]
            for want in scanned_roots(pp, parts, kind):
                tol = max(1e-12 * want, 1e-14) + root_conditioning(pp, parts, kind, want)
                assert any(abs(t0 - want) <= tol for t0 in ts), (kind, want, ts)

    @pytest.mark.parametrize("below", [1e-7, 1e-9])
    def test_both_points_near_the_fold(self, below):
        # on the mass fiber t E'(t) = K t^2 - R t^10 - (nu/2) P t^(3/2); with
        # K = R = nu = 1 its two zeros merge (E' = E'' = 0) at t^8 = 1/17,
        # P = 32 * 17^(-17/16).  Just below, they are 0.04 % apart or less
        pp = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=1.0)
        parts = Parts(1.0, 1.0, 1.0, 32.0 * 17.0 ** (-17 / 16) * (1.0 - below))
        points = _fiber_critical_points(pp, parts, "mass")
        assert [sign for _, sign in points] == [1, -1]
        for t0, _ in points:
            assert abs(t0 - 17.0 ** (-1 / 8)) < 1e-3
            assert abs(_derivative(pp, parts, "mass", t0)) <= \
                1e-10 * _derivative_scale(pp, parts, "mass", t0)


# ------------------------------------------------------- the ray root

def ray_root_oracle(pp, parts):
    """The Nehari ray root by doubling and halving brackets and brentq, held
    to [2^-46, 2^46]: the routine `_ray_root` replaced, with brentq's
    absolute tolerance taken out so that tiny roots keep their digits."""
    A = parts.kinetic + pp.mass_coeff * parts.mass
    B, C = pp.riesz_coeff * parts.riesz, pp.power_coeff * parts.power
    if B <= 0 and C <= 0:
        return None
    f = lambda t: B * t ** (2 * pp.p - 2) + C * t ** (pp.q - 2) - A
    hi = 1.0
    while f(hi) < 0:
        hi *= 2.0
        if hi > 2.0 ** 46:
            return None
    lo = 0.5 * hi
    while f(lo) > 0:
        lo *= 0.5
        if lo < 2.0 ** -46:
            return None
    return brentq(f, lo, hi, xtol=1e-300, rtol=1e-15)


def ray_root_tolerance(pp, parts, t):
    """1e-14 relative, plus the root's own conditioning."""
    return (1e-14 + ray_root_conditioning(pp, parts, t)) * t


def ray_root_conditioning(pp, parts, t):
    """How far a relative error eps in the terms of f(s) = B e^(e1 s) +
    C e^(e2 s) - A moves its zero in s = log t: about 2 eps A / f'(s)."""
    A = parts.kinetic + pp.mass_coeff * parts.mass
    e1, e2 = 2 * pp.p - 2, pp.q - 2
    slope = (e1 * pp.riesz_coeff * parts.riesz * t ** e1
             + e2 * pp.power_coeff * parts.power * t ** e2)
    return 8 * np.finfo(float).eps * 2 * A / slope


def ray_log_root(pp, parts):
    """s = log t of `_ray_root`, by the `_log_root` call it makes."""
    g, (K, M, R, P) = _weights(pp), astuple(parts)
    return _log_root(g[0] * K + g[1] * M, -(g[2] * R), -(g[3] * P), 2 * pp.p - 2, pp.q - 2,
                     -_RAY_RANGE, _RAY_RANGE, -_RAY_RANGE - 1.0)


def free_problems():
    """Free-mode wide draws, which put the root outside [2^-46, 2^46] often
    enough to test the None cases."""
    return wide_problems().filter(lambda d: not d[0].normalized)


class TestRayRoot:
    @given(free_problems())
    @settings(max_examples=400, deadline=None)
    def test_matches_brentq(self, draw):
        pp, parts = draw
        got, want = _ray_root(pp, parts), ray_root_oracle(pp, parts)
        if got is None or want is None:
            # only a root on the edge of the range may be found by one alone
            edge = got if want is None else want
            assert edge is None or min(abs(np.log2(edge) - 46), abs(np.log2(edge) + 46)) < 1e-10
            return
        assert abs(got - want) <= ray_root_tolerance(pp, parts, want)

    @pytest.mark.parametrize("parts", [
        Parts(1.0, 0.0, 0.0, 2.0), Parts(1.0, 0.0, 2.0, 0.0), Parts(1e-300, 0.0, 1e300, 1e300),
        Parts(1e300, 0.0, 1e-300, 0.0),
        *(Parts(2.0 ** e * (1 + d), 0.0, 0.0, 1.0)
          for e, d in ((46, -1e-9), (46, 1e-9), (-46, 1e-9), (-46, -1e-9)))],
        ids=["riesz-term-zero", "power-term-zero", "ratio-underflows", "root-above-range",
             "just-inside-above", "just-outside-above", "just-inside-below", "just-outside-below"])
    def test_float_start_edges(self, parts):
        # the float start raises nowhere and finds the oracle's root; with one
        # nonlinear term t = (A / c)^(1/e)
        pp = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0)
        s, want = ray_log_root(pp, parts), ray_root_oracle(pp, parts)
        if s is None:
            assert want is None
        else:
            assert abs(np.exp(s) - want) <= ray_root_tolerance(pp, parts, want)

    @pytest.mark.parametrize("parts", [Parts(1.0, 1.0, 0.0, 0.0), Parts(0.0, 0.0, 1.0, 1.0),
                                       Parts(1e-30, 0.0, 1e30, 1e30),
                                       Parts(1e300, 0.0, 1e-300, 0.0)],
                             ids=["no-nonlinear-term", "no-quadratic-term",
                                  "root-below-range", "root-above-range"])
    def test_none_cases(self, parts):
        pp = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0)
        assert ray_root_oracle(pp, parts) is None
        assert _ray_root(pp, parts) is None


# ----------------------------------------------------- the scaling law

def _fiber_map(pp, kind, t):
    """(amp, arg) with the fiber point at t equal to amp * u(arg x)."""
    return {"ray": (t, 1.0), "dilation": (1.0, 1.0 / t),
            "mass": (t ** (pp.N / 2.0), t)}[kind]


def _close(a: Parts, b: Parts, rtol):
    for x, y in zip((a.kinetic, a.mass, a.riesz, a.power),
                    (b.kinetic, b.mass, b.riesz, b.power)):
        assert abs(x - y) <= rtol * abs(y), (a, b)


class TestScalingLaw:
    @given(problems(), st.floats(0.05, 20.0))
    @settings(max_examples=300, deadline=None)
    def test_fibers_are_rescaled_parts(self, draw, t):
        pp, parts = draw
        for kind in KINDS:
            amp, arg = _fiber_map(pp, kind, t)
            got = energy_from_parts(pp, scaled_parts(pp, parts, amp, arg))
            want = float(fiber_energy(pp, parts, kind, t))
            assert abs(got - want) <= 1e-12 * _term_size(pp, parts, kind, t)

    @given(problems(), st.floats(0.2, 5.0), st.floats(0.2, 5.0),
           st.floats(0.2, 5.0), st.floats(0.2, 5.0))
    @settings(max_examples=300, deadline=None)
    def test_rescalings_compose(self, draw, a1, b1, a2, b2):
        pp, parts = draw
        twice = scaled_parts(pp, scaled_parts(pp, parts, a1, b1), a2, b2)
        _close(twice, scaled_parts(pp, parts, a1 * a2, b1 * b2), 1e-12)
        _close(scaled_parts(pp, parts, 1.0, 1.0), parts, 0.0)

    @given(problems(), st.floats(0.05, 20.0), st.floats(0.3, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_ray_law_on_discrete_fields(self, draw, t, width):
        # small grid: the table is rebuilt for every draw
        pp = draw[0]
        solver = _Discrete(pp, make_grid(pp.N, 12.0, 60, 2.0))
        v = np.exp(-(solver.grid.r / width) ** 2)
        v[-1] = 0.0
        got, want = solver.ray(solver.parts(v), t), solver.parts(t * v)
        _close(got, want, 1e-12)
        assert np.max(np.abs(got.conv - want.conv)) <= 1e-12 * np.max(np.abs(want.conv))

    @given(problems().filter(lambda d: d[0].normalized))
    @settings(max_examples=300, deadline=None)
    def test_identity_prediction_matches_the_closed_forms(self, draw):
        pp, parts = draw
        N, alpha, p, q = pp.N, pp.alpha, pp.p, pp.q
        if pp.mode == "normalized-hls":
            ts = pp.two_star
            want = 2 * (ts - q) / (q * (ts - 2)) * pp.nu * parts.power
        else:
            want = (N + alpha - p * (N - 2)) / (2 * p) * pp.nu * parts.riesz
        size = parts.kinetic + pp.riesz_coeff * parts.riesz + pp.power_coeff * parts.power
        assert abs(identity_prediction(pp, parts) - want) <= 1e-13 * size

    @given(problems().filter(lambda d: d[0].normalized),
           st.floats(0.3, 3.0), st.floats(0.1, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_multiplier_matches_the_strong_form(self, draw, width, amplitude):
        # small grid: the table is rebuilt for every draw
        pp = draw[0]
        solver = _MassSolver(pp, make_grid(pp.N, 12.0, 60, 2.0))
        u = amplitude * np.exp(-(solver.grid.r / width) ** 2)
        u[-1] = 0.0
        # the oracle: -<W F(u), u> / a^2 from the strong form F at shift 0
        F = solver.residual(u, 0.0, solver.conv_of(u))[0]
        oracle = -float(np.dot(solver.W, F * u)) / pp.a ** 2
        parts = solver.parts(u)
        size = (parts.kinetic + pp.riesz_coeff * parts.riesz
                + pp.power_coeff * parts.power) / pp.a ** 2
        assert abs(multiplier_from_parts(pp, parts) - oracle) <= 1e-13 * size

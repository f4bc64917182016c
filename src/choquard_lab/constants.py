"""Named constants of the variational problems.

Gamma-formula constants (Riesz normalization, sharp HLS, sharp
Gagliardo-Nirenberg, Sobolev) are evaluated in closed form; the
Rayleigh-quotient constants are computed from the extremal fields.
The smallness thresholds K_q / K_p gate the mass-constrained two-branch
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, inf, isfinite, pi

from .errors import InvalidParameter
from .functional import ProblemParams
from .grid import RadialField, RadialGrid, gradient_seminorm, integrate
from .profiles import talenti
from .riesz import _check_dimension, interaction_energy, riesz_normalization

__all__ = [
    "riesz_normalization", "hls_constant", "interaction_bound_constant",
    "sobolev_constant", "gn_constant", "rayleigh_constants",
    "coefficient_table", "CoefficientTable",
]


def hls_constant(N: int, alpha: float) -> float:
    """Sharp constant of the diagonal Hardy-Littlewood-Sobolev inequality.

    Bounds the bare double integral of u(x)v(y)|x-y|^(alpha-N) with
    exponents p = r = 2N/(N+alpha); the Riesz normalization A_alpha is not
    included (see `interaction_bound_constant`).
    """
    _check_dimension(N)
    if not 0 < alpha < N:
        raise InvalidParameter(f"alpha={alpha} outside (0, N={N})")
    try:
        value = (pi ** ((N - alpha) / 2) * gamma(alpha / 2) / gamma((N + alpha) / 2)
                 * (gamma(N / 2) / gamma(N)) ** (-alpha / N))
    except (ValueError, OverflowError):     # Gamma(alpha/2) ~ 2/alpha overflows
        value = inf
    if not isfinite(value):
        raise InvalidParameter(f"the HLS constant overflows a double at alpha={alpha}")
    return value


def interaction_bound_constant(N: int, alpha: float) -> float:
    """Sharp bound for the A_alpha-normalized interaction:
    int (I_alpha*g) g <= this * ||g||_{2N/(N+alpha)}^2.  Below alpha = 1e-300,
    where Gamma(alpha/2) overflows the HLS constant, it is cancelled by hand."""
    A = riesz_normalization(N, alpha)       # checks N and alpha
    if alpha < 1e-300:
        return (gamma((N - alpha) / 2) / gamma((N + alpha) / 2) / (4 * pi) ** (alpha / 2)
                * (gamma(N / 2) / gamma(N)) ** (-alpha / N))
    return A * hls_constant(N, alpha)


def sobolev_constant(N: int) -> float:
    """Best constant of ||grad u||_2^2 >= S ||u||_{2*}^2 on R^N."""
    _check_dimension(N)
    return pi * N * (N - 2) * (gamma(N / 2) / gamma(N)) ** (2.0 / N)


def gn_constant(N: int, q: float, q_norm2: float) -> float:
    """Sharp Gagliardo-Nirenberg constant C_Nq from the L2 norm of the
    (unique) positive radial ground state of -Q'' - (N-1)/r Q' + Q = Q^(q-1).

    C_Nq^q = 2q/(2N-q(N-2)) * ((2N-q(N-2))/(N(q-2)))^(N(q-2)/4) / ||Q_q||_2^(q-2).
    """
    _check_dimension(N)
    if not 2 < q < 2 * N / (N - 2):
        raise InvalidParameter(f"q={q} outside (2, 2*) for N={N}")
    if not 0 < q_norm2 < inf:
        raise InvalidParameter(f"||Q_q||_2 = {q_norm2} must be positive and finite")
    gam = 2 * N - q * (N - 2)
    cq = (2 * q / gam) * (gam / (N * (q - 2))) ** (N * (q - 2) / 4.0) / q_norm2 ** (q - 2)
    return cq ** (1.0 / q)


@dataclass(frozen=True)
class RayleighConstants:
    S: float
    S_alpha: float
    S_q: float | None


def rayleigh_constants(grid: RadialGrid, alpha: float, *, q: float | None = None,
                       q_ground: RadialField | None = None) -> RayleighConstants:
    """Grid Rayleigh-quotient constants evaluated at the extremal fields.

    S from the Sobolev quotient of the bubble `talenti(grid)`; S_alpha from its
    HLS-critical quotient; S_q from the H1 quotient at the local ground state,
    on that field's own grid (optional, None when the field is not supplied).
    """
    S_q = None
    if q_ground is not None:
        if q is None:
            raise InvalidParameter("exponent q required with q_ground")
        k2, m2 = gradient_seminorm(q_ground), integrate(q_ground.grid, q_ground.values ** 2)
        if k2 == 0.0 and m2 == 0.0:
            raise InvalidParameter("Rayleigh quotient of the zero field")
        P = integrate(q_ground.grid, q_ground.values ** q)
        S_q = (k2 + m2) / P ** (2.0 / q)
    N = grid.N
    w1 = talenti(grid)
    two_star = 2 * N / (N - 2)
    kin = gradient_seminorm(w1)
    lq = integrate(grid, w1.values ** two_star)
    S = kin / lq ** (2.0 / two_star)
    t2a = (N + alpha) / (N - 2)
    D = interaction_energy(grid, w1, t2a, alpha)
    S_alpha = kin / D ** ((N - 2.0) / (N + alpha))
    return RayleighConstants(S=S, S_alpha=S_alpha, S_q=S_q)


@dataclass(frozen=True)
class CoefficientTable:
    """Mass-scaling exponents, smallness thresholds and critical levels."""

    N: int
    alpha: float
    p: float
    q: float
    gamma_q: float
    eta_p: float
    K_q: float | None
    K_p: float | None
    nu_bound_hls: float | None
    nu_bound_sob: float | None
    crit_level_hls: float
    crit_level_sob: float


def coefficient_table(N: int, alpha: float, p: float, q: float,
                      S_alpha: float, S: float | None = None,
                      C_Nq: float | None = None, C_Np: float | None = None,
                      ) -> CoefficientTable:
    """Evaluate gamma_q, eta_p, the K_q/K_p thresholds and critical levels.

    K_q (HLS-critical branch gate) needs C_Nq and S_alpha and is defined for
    q in (2, 2+4/N); K_p (Sobolev-critical gate) needs C_Np, the HLS bound
    constant and S, for p in ((N+alpha)/N, 1+(2+alpha)/N).  Outside those
    windows the corresponding entries are None.
    """
    if not (0 < S_alpha < inf and all(c is None or 0 < c < inf for c in (S, C_Nq, C_Np))):
        raise InvalidParameter(f"S_alpha={S_alpha}, S={S}, C_Nq={C_Nq} and C_Np={C_Np} "
                               "must be positive and finite")
    params = ProblemParams(N, alpha, p, q)
    t2a, gamma_q, eta_p = params.two_alpha_star, params.gamma_q, params.eta_p
    crit_level_hls = (2 + alpha) / (2 * (N + alpha)) * S_alpha ** ((N + alpha) / (2 + alpha))
    if S is None:
        S = sobolev_constant(N)
    crit_level_sob = S ** (N / 2.0) / N
    K_q = nu_bound_hls = None
    if q < 2 + 4.0 / N and C_Nq is not None:
        qg = q * gamma_q
        A = t2a * (2 - qg) * C_Nq ** q * S_alpha ** t2a / (q * (t2a - 1))
        K_q = ((2 * t2a - qg) / (2 * t2a * (2 - qg) * S_alpha ** t2a)
               * A ** (2 * (t2a - 1) / (2 * t2a - qg)))
        nu_bound_hls = (2 * K_q) ** (-(2 * (N + alpha) - qg * (N - 2)) / (2 * (2 + alpha)))
    K_p = nu_bound_sob = None
    if p < 1 + (2.0 + alpha) / N and C_Np is not None:
        # max_rho f_(a,nu)(rho) = 1/2 - K_p varpi^(2/(N - p eta_p (N-2))); the
        # bracket carries the S^(N/(N-2)) factor of the maximizing rho
        Ca = interaction_bound_constant(N, alpha)
        peta = p * eta_p
        K_p = ((N * (alpha - (p - 1) * (N - 2)) + 2 * (N - alpha))
               / (2 * N * (2 + alpha - N * (p - 1))) * S ** (-N / (N - 2.0))
               * (N * (1 - peta) * Ca * C_Np ** (2 * p) * S ** (N / (N - 2.0)) / (2 * p))
               ** (2.0 / (N - peta * (N - 2))))
        nu_bound_sob = (2 * K_p) ** (-(N - peta * (N - 2)) / 2.0)
    return CoefficientTable(N=N, alpha=alpha, p=p, q=q, gamma_q=gamma_q, eta_p=eta_p,
                            K_q=K_q, K_p=K_p, nu_bound_hls=nu_bound_hls,
                            nu_bound_sob=nu_bound_sob, crit_level_hls=crit_level_hls,
                            crit_level_sob=crit_level_sob)

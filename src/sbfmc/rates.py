"""Closed-form multicast achievable rates, rate gaps and their high-power
limits for the stochastic beamforming schemes, plus an independent quadrature
oracle for every rate integral.

All rates are in nats; sbfmc.schemes names the scheme of each.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import gainlaws, quadrature, specfun

__all__ = [
    "SchemeParams",
    "rate_mc",
    "rate_sbf_gauss",
    "rate_sbf_ellip",
    "rate_sbf_alam_gauss",
    "rate_sbf_alam_ellip",
    "quadrature_rate_oracle",
]

@dataclass(frozen=True)
class SchemeParams:
    """Worst-user gain rho_min, transmit power P (linear) and the rank of
    the transmit covariance."""

    rho_min: float
    power: float
    rank: int = 1

    def __post_init__(self):
        if not self.rho_min > 0:
            raise ValueError(f"rho_min must be > 0, got {self.rho_min}")
        if self.power < 0:
            raise ValueError(f"power must be >= 0, got {self.power}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


def rate_mc(p):
    """Worst-user capacity bound log(1 + rho_min P)."""
    return math.log1p(p.rho_min * p.power)


def rate_sbf_gauss(p):
    """Gaussian-weight SBF rate exp(1/(rho P)) E1(1/(rho P)).

    Evaluated through the scaled continued fraction, so arbitrarily small
    rho*P never overflows; relative accuracy degrades only below
    rho*P ~ 1e-12 where the rate itself is ~1e-12.
    """
    beta = p.rho_min * p.power
    if beta == 0.0:
        return 0.0
    return specfun.exp_e1_scaled(1.0 / beta)


def _log_inv_u(beta, p):
    """lam = log(1 + 1/beta) = -log u, u = beta / (1 + beta): u^k = exp(-k lam)
    keeps a few ulp as u nears 1.  Below beta = 1 it is taken as log1p(beta)
    - log(beta), which a subnormal beta does not overflow.  ValueError naming
    p's rank and power when beta is not finite."""
    if not math.isfinite(beta):
        raise ValueError(f"elliptic rate at rank {p.rank}, power {p.power:g}: "
                         f"rank * rho_min * power is {beta}")
    return math.log1p(1.0 / beta) if beta >= 1.0 else math.log1p(beta) - math.log(beta)


def _positive_series(beta, lam, coef):
    """sum_{k>=1} u^k coef(k), u = exp(-lam), for a positive non-increasing
    coef.  Past K terms the tail is below u^K (1 + beta) times the sum, so
    K = (39 + log(1 + beta)) / lam leaves out less than 2^-56 of it."""
    k_max = math.ceil((39.0 + math.log1p(beta)) / lam)
    return math.fsum(math.exp(-k * lam) * coef(k) for k in range(1, k_max + 1))


def _log_tail(beta, lam, n):
    """T(beta, n) = sum_{k>=1} u^k / (n + k) = u Phi(u, 1, n + 1), Phi the
    Lerch transcendent.  Where u^n >= 1/e the finite form (1 + 1/beta)^n
    (log(1 + beta) - sum_{j<=n} u^j / j) loses under five bits to cancellation
    for n <= 1000; elsewhere beta < n, and the series ends within
    (39 + log(1 + n)) n + 1 terms."""
    if n * lam > 1.0:
        return _positive_series(beta, lam, lambda k: 1.0 / (n + k))
    head = math.fsum(math.exp(-j * lam) / j for j in range(1, n + 1))
    return math.exp(n * lam) * (math.log1p(beta) - head)


def rate_sbf_ellip(p):
    """Ellipsoid-weight SBF rate in closed form.

    sum_{k>=1} u^k / (r - 1 + k), u = beta / (1 + beta), beta = r rho P: the
    binomial sum (1 + 1/beta)^(r-1) [log(1 + beta) - H_{r-1} - sum_{k=1}^{r-1}
    C(r-1,k) (-1)^k / (k (1 + beta)^k)] in positive terms.  Collapses to
    log(1 + rho P) for rank 1.
    """
    if p.rank == 1:
        return rate_mc(p)
    beta = p.rank * p.rho_min * p.power
    if beta == 0.0:
        return 0.0
    return _log_tail(beta, _log_inv_u(beta, p), p.rank - 1)


def rate_sbf_alam_gauss(p):
    """Gaussian-weight SBF-Alamouti rate
    (1 - 2/(rho P)) exp(2/(rho P)) E1(2/(rho P)) + 1."""
    beta = p.rho_min * p.power
    if beta == 0.0:
        return 0.0
    x = 2.0 / beta
    return (1.0 - x) * specfun.exp_e1_scaled(x) + 1.0


def rate_sbf_alam_ellip(p):
    """Ellipsoid-weight SBF-Alamouti rate C1(P) - C2(P), rank r >= 2.

    With u and beta as in rate_sbf_ellip and a = 2r - 2 it is the positive
    series sum_{k>=1} u^k (4r - 3 + k) / ((a + k) (a + 1 + k)), summed as
    such for beta < a and as (1 - a/beta) T(beta, a) + a/(a + 1) above.
    """
    r = p.rank
    if r < 2:
        raise ValueError(f"elliptic Alamouti rate needs rank >= 2, got {r}")
    beta = r * p.rho_min * p.power
    if beta == 0.0:
        return 0.0
    lam, a = _log_inv_u(beta, p), 2 * r - 2
    if beta < a:
        return _positive_series(beta, lam, lambda k: (2 * a + 1 + k) / ((a + k) * (a + 1 + k)))
    return (beta - a) / beta * _log_tail(beta, lam, a) + a / (a + 1)


def quadrature_rate_oracle(law, rho, power, tol=1e-10):
    """Independent evaluation of E[log(1 + t rho P)] = int log(1+t rho P)
    f(t) dt for a gain law with a closed-form density.

    Adaptive Gauss-Legendre with bisection; infinite supports are truncated
    where the tail mass drops below 1e-14 (the truncated contribution is
    folded into the error budget).  Raises QuadratureError when the
    tolerance cannot be met.
    """
    if isinstance(law, gainlaws.PointMassGain):
        return math.log1p(law.location * rho * power)
    scale = rho * power
    if scale == 0.0:
        return 0.0
    lo, hi = law.support
    upper = gainlaws.truncation_point(law, eps=1e-14)
    value, err = quadrature.adaptive_gauss_legendre(
        lambda t: np.log1p(scale * t) * law.pdf(t), lo, upper, tol=tol
    )
    if np.isinf(hi):
        # discarded tail: mass < 1e-14 times a slowly growing log factor
        err += 1e-14 * math.log1p(scale * (upper + 1.0) * 10.0)
    if err > max(tol, 1e-9):
        raise quadrature.QuadratureError(value, err)
    return value

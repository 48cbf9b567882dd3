"""Closed-form multicast achievable rates, rate gaps and their high-power
limits for the stochastic beamforming schemes, plus an independent quadrature
oracle for every rate integral.

All rates are in nats.  Scheme naming used throughout the package:

  mc                   worst-user bound log(1 + rho_min P)
  gauss_sbf            Gaussian-weight stochastic beamforming
  ellip_sbf            uniform-ellipsoid stochastic beamforming
  gauss_sbf_alamouti   Gaussian weights + orthogonal 2x2 code
  ellip_sbf_alamouti   ellipsoid weights + orthogonal 2x2 code
"""

import math
from dataclasses import dataclass

import numpy as np

from . import gainlaws, quadrature, specfun
from .hypoexp import ExponentialMixture, partial_fraction_coeffs
from .quadrature import QuadratureError  # re-exported for callers

__all__ = [
    "SchemeParams",
    "BinghamUserParams",
    "ExponentialMixture",
    "QuadratureError",
    "RateScheme",
    "RATE_SCHEMES",
    "GAP_SCHEMES",
    "rate_mc",
    "rate_sbf_gauss",
    "rate_sbf_ellip",
    "rate_sbf_alam_gauss",
    "rate_sbf_alam_ellip",
    "gap_limit",
    "phi_exp_mixture",
    "rate_bingham_user",
    "quadrature_rate_oracle",
    "partial_fraction_coeffs",
    "gain_law_for_scheme",
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


def _bracket(beta, n):
    """log(1 + beta) - H_n - sum_{k=1}^n C(n,k) (-1)^k / (k (1+beta)^k)."""
    total = math.log1p(beta) - float(specfun.harmonic(n))
    base = 1.0 + beta
    for k in range(1, n + 1):
        total -= math.comb(n, k) * (-1) ** k / (k * base**k)
    return total


def rate_sbf_ellip(p):
    """Ellipsoid-weight SBF rate in closed form.

    (1 + 1/(r rho P))^(r-1) [log(1 + r rho P) - H_{r-1}
        - sum_{k=1}^{r-1} C(r-1,k) (-1)^k / (k (1 + r rho P)^k)];
    collapses to log(1 + rho P) for rank 1.
    """
    if p.rank == 1:
        return rate_mc(p)
    beta = p.rank * p.rho_min * p.power
    if beta == 0.0:
        return 0.0
    return (1.0 + 1.0 / beta) ** (p.rank - 1) * _bracket(beta, p.rank - 1)


def rate_sbf_alam_gauss(p):
    """Gaussian-weight SBF-Alamouti rate
    (1 - 2/(rho P)) exp(2/(rho P)) E1(2/(rho P)) + 1."""
    beta = p.rho_min * p.power
    if beta == 0.0:
        return 0.0
    x = 2.0 / beta
    return (1.0 - x) * specfun.exp_e1_scaled(x) + 1.0


def rate_sbf_alam_ellip(p):
    """Ellipsoid-weight SBF-Alamouti rate C1(P) - C2(P), rank >= 2."""
    r = p.rank
    if r < 2:
        raise ValueError(f"elliptic Alamouti rate needs rank >= 2, got {r}")
    beta = r * p.rho_min * p.power
    if beta == 0.0:
        return 0.0
    c1 = (2 * r - 1) * (1.0 + 1.0 / beta) ** (2 * r - 2) * _bracket(beta, 2 * r - 2)
    c2 = (2 * r - 2) * (1.0 + 1.0 / beta) ** (2 * r - 1) * _bracket(beta, 2 * r - 1)
    return c1 - c2


@dataclass(frozen=True)
class RateScheme:
    """Closed-form facts of one scheme: one entry of RATE_SCHEMES.

    rate: SchemeParams -> achievable rate in nats.  None marks
        bingham_phi, which is no transmission scheme but the verify check
        of phi_exp_mixture on the equal-weight rank-r mixture (the
        log-moment term of the Bingham-weight rate).
    gain_law: rank -> normalized-gain law (see sbfmc.gainlaws).
    gap_limit: rank -> high-power limit of C_mc - rate, in nats; None for
        mc, the bound itself.
    uses_rank: whether the law depends on the rank of the covariance.
    min_rank: smallest rank the law is defined for.

    The entries call the module's functions by name when they run, so a
    rebinding of those names (profilers, perfbench's tracer) reaches every
    call.
    """

    rate: object
    gain_law: object
    gap_limit: object
    uses_rank: bool
    min_rank: int = 1


RATE_SCHEMES = {
    "mc": RateScheme(
        rate=lambda p: rate_mc(p),
        gain_law=lambda r: gainlaws.PointMassGain(1.0),
        gap_limit=None, uses_rank=False),
    "gauss_sbf": RateScheme(
        rate=lambda p: rate_sbf_gauss(p),
        gain_law=lambda r: gainlaws.ExponentialGain(),
        gap_limit=lambda r: specfun.EULER_GAMMA, uses_rank=False),
    "ellip_sbf": RateScheme(
        rate=lambda p: rate_sbf_ellip(p),
        gain_law=lambda r: gainlaws.elliptic_gain(r),
        gap_limit=lambda r: float(specfun.harmonic(r - 1)) - math.log(r), uses_rank=True),
    "gauss_sbf_alamouti": RateScheme(
        rate=lambda p: rate_sbf_alam_gauss(p),
        gain_law=lambda r: gainlaws.ChiSquare4Gain(),
        gap_limit=lambda r: math.log(2.0) + specfun.EULER_GAMMA - 1.0, uses_rank=False),
    "ellip_sbf_alamouti": RateScheme(
        rate=lambda p: rate_sbf_alam_ellip(p),
        gain_law=lambda r: gainlaws.EllipticAlamoutiGain(r),
        gap_limit=lambda r: float(specfun.harmonic(2 * r - 1)) - math.log(r) - 1.0,
        uses_rank=True, min_rank=2),
    "bingham_phi": RateScheme(rate=None, gain_law=None, gap_limit=None, uses_rank=True),
}

GAP_SCHEMES = tuple(name for name, s in RATE_SCHEMES.items() if s.gap_limit is not None)


def _entry(scheme, fact):
    """A scheme's entry; ValueError when the scheme is unknown or lacks the fact."""
    entry = RATE_SCHEMES.get(scheme)
    if getattr(entry, fact, None) is None:
        raise ValueError(f"no {fact.replace('_', ' ')} for scheme {scheme!r}")
    return entry


def gap_limit(scheme, rank=1):
    """Exact high-power limit of the rate gap C_mc - C_scheme, in nats."""
    entry = _entry(scheme, "gap_limit")
    if rank < entry.min_rank:
        raise ValueError(f"{scheme} gap limit needs rank >= {entry.min_rank}, got {rank}")
    return entry.gap_limit(rank)


def phi_exp_mixture(mix):
    """E[log sum_k d_k zeta_k] for i.i.d. unit-mean exponential zeta.

    Closed form through the partial-fraction density and the log-moment
    integral theta: the (r_k - m)! factors cancel against theta's
    factorial, leaving sums of Psi[k,m] d_k^(q+1) (H_q - gamma + log d_k).
    """
    if not isinstance(mix, ExponentialMixture):
        mix = ExponentialMixture.from_weights(mix)
    pref = math.prod(
        d ** -r for d, r in zip(mix.distinct_means, mix.multiplicities)
    )
    total = 0.0
    for k, (d, rk) in enumerate(zip(mix.distinct_means, mix.multiplicities)):
        for m in range(1, rk + 1):
            q = rk - m
            hq = float(specfun.harmonic(q))
            total += (
                (-1) ** q
                * mix.psi[k, m - 1]
                * d ** (q + 1)
                * (hq - specfun.EULER_GAMMA + math.log(d))
            )
    return pref * total


@dataclass(frozen=True)
class BinghamUserParams:
    """Per-user inputs of the Bingham-weight rate: quadratic-form gain
    rho_i, the user's eigen-gain vector mu and the covariance spectrum
    lambda (sums to 1).  Deriving mu and lambda from channels is out of
    scope; they are taken as given."""

    rho_i: float
    mu: tuple
    lam: tuple

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        lam = np.asarray(self.lam, dtype=np.float64)
        if not self.rho_i > 0:
            raise ValueError(f"rho_i must be > 0, got {self.rho_i}")
        if np.any(mu < 0) or not np.any(mu > 0):
            raise ValueError("mu must be nonnegative with at least one positive entry")
        if np.any(lam < 0) or abs(lam.sum() - 1.0) > 1e-12:
            raise ValueError("lambda must be nonnegative and sum to 1 (tol 1e-12)")


def rate_bingham_user(bp, power):
    """Bingham-weight SBF rate of one user:
    log(1 + rho_i P) + phi(mu / sum mu) - phi(lambda).

    Zero entries of either weight vector are dropped before building the
    mixtures (a zero mean contributes nothing to the weighted sum).
    """
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    mu = np.asarray(bp.mu, dtype=np.float64)
    mix_mu = ExponentialMixture.from_weights(mu / mu.sum())
    mix_lam = ExponentialMixture.from_weights(bp.lam)
    return math.log1p(bp.rho_i * power) + phi_exp_mixture(mix_mu) - phi_exp_mixture(mix_lam)


def gain_law_for_scheme(scheme, rank=1):
    """Normalized-gain law of a scheme (see module docstring for names)."""
    return _entry(scheme, "gain_law").gain_law(rank)


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
        raise QuadratureError(value, err)
    return value

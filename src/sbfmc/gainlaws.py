"""Effective-gain laws shared by the quadrature oracle and the samplers.

Every scheme reduces, for a user with quadratic-form gain rho, to a scalar
ergodic channel log(1 + t * rho * P) where the normalized gain t follows one
of the laws below (all unit mean except the point mass location):

  exponential            Gaussian-weight beamforming, t ~ Exp(1)
  elliptic(r)            uniform-ellipsoid weights, t = r * Beta(1, r-1)
  chi-square-4           two Gaussian weights + orthogonal code, t = (E1+E2)/2
  elliptic-Alamouti(r)   two ellipsoid weights + orthogonal code,
                         t = r * Beta(2, 2r-2)
  gamma(r)               mean of r i.i.d. Exp(1), t ~ Gamma(r, 1/r): the
                         log-moment phi that verify checks
  point mass             deterministic beamforming
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun


@dataclass(frozen=True)
class PointMassGain:
    location: float = 1.0
    name = "point_mass"

    def sample(self, rng, size):
        return np.full(size, self.location)


@dataclass(frozen=True)
class ExponentialGain:
    name = "exponential"
    support = (0.0, np.inf)

    def pdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t >= 0, np.exp(-t), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t >= 0, -np.expm1(-t), 0.0)

    def sample(self, rng, size):
        return rng.standard_exponential(size)


@dataclass(frozen=True)
class EllipticGain:
    """t = r * Beta(1, r-1): density (1 - 1/r)(1 - t/r)^(r-2) on [0, r]."""

    rank: int
    name = "elliptic"

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("elliptic law needs rank >= 2; rank 1 is a point mass")

    @property
    def support(self):
        return (0.0, float(self.rank))

    def pdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        r = self.rank
        inside = (t >= 0) & (t <= r)
        return np.where(inside, (1 - 1 / r) * (1 - np.clip(t, 0, r) / r) ** (r - 2), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        r = self.rank
        return np.where(t >= r, 1.0, np.where(t < 0, 0.0, 1 - (1 - np.clip(t, 0, r) / r) ** (r - 1)))

    def sample(self, rng, size):
        # Beta via the gamma ratio; exact for the integer shapes used here
        g1 = rng.gamma(1.0, size=size)
        g2 = rng.gamma(self.rank - 1.0, size=size)
        return self.rank * g1 / (g1 + g2)


@dataclass(frozen=True)
class ChiSquare4Gain:
    """Unit-mean chi-square with 4 degrees of freedom: density 4 t exp(-2t)."""

    name = "chi_square_4"
    support = (0.0, np.inf)

    def pdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t >= 0, 4.0 * t * np.exp(-2.0 * t), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        tt = np.clip(t, 0, None)
        return np.where(t >= 0, 1.0 - np.exp(-2.0 * tt) * (1.0 + 2.0 * tt), 0.0)

    def sample(self, rng, size):
        return 0.5 * rng.gamma(2.0, size=size)


@dataclass(frozen=True)
class EllipticAlamoutiGain:
    """t = r * Beta(2, 2r-2): density (2r-1)(2r-2)/r * (t/r)(1-t/r)^(2r-3)."""

    rank: int
    name = "elliptic_alamouti"

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("elliptic-Alamouti law needs rank >= 2")

    @property
    def support(self):
        return (0.0, float(self.rank))

    def pdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        r = self.rank
        u = np.clip(t, 0, r) / r
        inside = (t >= 0) & (t <= r)
        return np.where(inside, (2 * r - 1) * (2 * r - 2) / r * u * (1 - u) ** (2 * r - 3), 0.0)

    def cdf(self, t):
        from scipy.special import betainc  # imported here: see the package docstring

        t = np.asarray(t, dtype=np.float64)
        r = self.rank
        u = np.clip(t, 0, r) / r
        return betainc(2.0, 2.0 * r - 2.0, u)

    def sample(self, rng, size):
        g1 = rng.gamma(2.0, size=size)
        g2 = rng.gamma(2.0 * self.rank - 2.0, size=size)
        return self.rank * g1 / (g1 + g2)


@dataclass(frozen=True)
class GammaGain:
    """Mean of r i.i.d. unit-mean exponentials, t ~ Gamma(r, 1/r): density
    r^r t^(r-1) e^(-r t) / (r-1)!, formed in log space so that no factor
    overflows at large r."""

    rank: int
    name = "gamma"
    support = (0.0, np.inf)

    def pdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        r = self.rank
        pos = np.where(t > 0, t, 1.0)
        log_p = (r - 1) * np.log(pos) - r * pos + r * math.log(r) - math.lgamma(r)
        return np.where(t > 0, np.exp(log_p), np.where(t == 0, float(r == 1), 0.0))

    def cdf(self, t):
        from scipy.special import gammainc  # imported here: see the package docstring

        return gammainc(self.rank, self.rank * np.clip(np.asarray(t, dtype=np.float64), 0, None))

    def log_moment(self):
        """E[log t] = H_{r-1} - gamma - log r."""
        return float(specfun.harmonic(self.rank - 1)) - specfun.EULER_GAMMA - math.log(self.rank)

    def sample(self, rng, size):
        zeta = rng.standard_exponential((size, self.rank))
        return zeta @ np.full(self.rank, 1.0 / self.rank)


def elliptic_gain(rank):
    """Elliptic law of the given rank; degenerates to a point mass at 1 for
    rank 1 (the weight is then a deterministic phase rotation)."""
    if rank == 1:
        return PointMassGain(1.0)
    return EllipticGain(rank)


def truncation_point(law, eps=1e-14):
    """Upper limit T with tail mass 1 - cdf(T) < eps (finite supports return
    the support endpoint)."""
    lo, hi = law.support
    if np.isfinite(hi):
        return hi
    t = 1.0
    while 1.0 - float(law.cdf(t)) > eps:
        t *= 2.0
        if t > 1e12:
            raise ValueError(f"cannot truncate tail of {law.name}")
    return t

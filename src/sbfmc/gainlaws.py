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

The three unbounded laws carry a scalar tail(t) = P(T > t), for t > 0,
which sets the quadrature's truncation point; the laws' CDFs, which only
the tests use, live in tests/helpers.py.

Each sampler fills and returns one array of `size` draws and otherwise holds
at most one block of CHUNK rows; GammaGain's rows hold `rank` exponentials
each, so its blocks are cut to at most GAMMA_BLOCK exponentials, which
leaves CHUNK rows up to rank 32.  The blocks consume the generator in the
order of one whole-array draw and repeat its arithmetic, so the returned
bits are those of the whole-array expressions kept in tests/helpers.py;
GammaGain's above rank 32 are not, because a matrix-vector product can
round each row by the number of rows in its block.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun

# rows per block of a chunked draw
CHUNK = 1 << 16
# exponentials per block of a GammaGain draw: CHUNK rows up to rank 32
GAMMA_BLOCK = 1 << 21


def _chunks(size, rows=CHUNK):
    """Slices of 0..size that start at multiples of rows; a lone last row
    joins the slice before it, because a one-row matmul takes numpy's dot
    path and rounds unlike the rows of a many-row matmul."""
    start = 0
    while start < size:
        stop = start + rows
        if stop + 1 >= size:
            stop = size
        yield slice(start, stop)
        start = stop


def _beta_ratio(rng, rank, a, b, size):
    """rank * g1 / (g1 + g2), g1 ~ Gamma(a) drawn whole, then g2 ~ Gamma(b)
    drawn a block at a time and folded into g1 in place."""
    g1 = rng.gamma(a, size=size)
    for s in _chunks(size):
        block = g1[s]
        den = rng.gamma(b, size=block.size)
        den += block
        block *= rank
        block /= den
    return g1


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

    def tail(self, t):
        return math.exp(-t)

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

    def sample(self, rng, size):
        # Beta via the gamma ratio; exact for the integer shapes used here
        return _beta_ratio(rng, self.rank, 1.0, self.rank - 1.0, size)


@dataclass(frozen=True)
class ChiSquare4Gain:
    """Unit-mean chi-square with 4 degrees of freedom: density 4 t exp(-2t)."""

    name = "chi_square_4"
    support = (0.0, np.inf)

    def pdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t >= 0, 4.0 * t * np.exp(-2.0 * t), 0.0)

    def tail(self, t):
        return math.exp(-2.0 * t) * (1.0 + 2.0 * t)

    def sample(self, rng, size):
        t = rng.gamma(2.0, size=size)
        t *= 0.5
        return t


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

    def sample(self, rng, size):
        return _beta_ratio(rng, self.rank, 2.0, 2.0 * self.rank - 2.0, size)


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

    def tail(self, t):
        """Erlang tail e^(-x) sum_{k<r} x^k / k!, x = r t, with each term
        formed in log space."""
        x = self.rank * t
        log_x = math.log(x)
        return math.fsum(math.exp(k * log_x - x - math.lgamma(k + 1)) for k in range(self.rank))

    def log_moment(self):
        """E[log t] = H_{r-1} - gamma - log r."""
        return float(specfun.harmonic(self.rank - 1)) - specfun.EULER_GAMMA - math.log(self.rank)

    def sample(self, rng, size):
        out = np.empty(size)
        weights = np.full(self.rank, 1.0 / self.rank)
        for s in _chunks(size, max(1, min(CHUNK, GAMMA_BLOCK // self.rank))):
            block = out[s]
            np.matmul(rng.standard_exponential((block.size, self.rank)), weights, out=block)
        return out


def elliptic_gain(rank):
    """Elliptic law of the given rank; degenerates to a point mass at 1 for
    rank 1 (the weight is then a deterministic phase rotation)."""
    if rank == 1:
        return PointMassGain(1.0)
    return EllipticGain(rank)


def truncation_point(law, eps=1e-14):
    """Upper limit T, the first of 1, 2, 4, ... with tail mass law.tail(T)
    <= eps (finite supports return the support endpoint)."""
    hi = law.support[1]
    if np.isfinite(hi):
        return hi
    t = 1.0
    while law.tail(t) > eps:
        t *= 2.0
        if t > 1e12:
            raise ValueError(f"cannot truncate tail of {law.name}")
    return t

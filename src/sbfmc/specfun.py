"""Special functions and exact combinatorial identities used by the rate
formulas: the exponential integral E1, complementary incomplete gamma at
non-positive integer order, harmonic numbers, alternating binomial sums, and
the log-moment integral of gamma-type densities.

All combinatorial quantities are exact rationals (``fractions.Fraction``);
everything else is float64.
"""

import math
from fractions import Fraction

import numpy as np

#: Euler-Mascheroni constant to double precision.
EULER_GAMMA = 0.57721566490153286061

_SERIES_MAX_TERMS = 60
_CF_MAX_ITERS = 300
_TINY = 1e-300


def euler_gamma():
    """The Euler-Mascheroni constant gamma."""
    return EULER_GAMMA


def _e1_series(x):
    """E1 on (0, 1] via the alternating power series around 0."""
    total = -EULER_GAMMA - np.log(x)
    term = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        term *= -x / k
        delta = -term / k
        total += delta
        if abs(delta) < 1e-18 * max(abs(total), 1e-30):
            break
    return total


def _e1_cf_scaled(x):
    """exp(x)*E1(x) for x > 1 via the modified Lentz continued fraction."""
    b = x + 1.0
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITERS):
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _e1(x):
    """E1(x) for a float x > 0."""
    if x <= 1.0:
        return _e1_series(x)
    return _e1_cf_scaled(x) * np.exp(-x)


def _e1_scaled(x):
    """exp(x)*E1(x) for a float x > 0."""
    if x <= 1.0:
        return np.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_1^inf t^-1 exp(-x t) dt, x > 0.

    Evaluated by the power series below x = 1 and by a continued fraction
    above; relative error is at the 1e-14 level throughout.  Accepts a
    scalar or an array.
    """
    if np.ndim(x) == 0:
        x = float(x)
        if not x > 0.0:
            raise ValueError(f"E1 requires x > 0, got {x}")
        return _e1(x)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x > 0.0):
        raise ValueError("E1 requires x > 0")
    return np.array([_e1(float(v)) for v in x.flat]).reshape(x.shape)


def exp_e1_scaled(x):
    """exp(x) * E1(x) for x > 0, overflow-free for arbitrarily large x.

    The continued-fraction branch produces the scaled value directly, so
    exp(x) is never formed; this is the quantity the rate formulas need.
    """
    if np.ndim(x) == 0:
        x = float(x)
        if not x > 0.0:
            raise ValueError(f"scaled E1 requires x > 0, got {x}")
        return _e1_scaled(x)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x > 0.0):
        raise ValueError("scaled E1 requires x > 0")
    return np.array([_e1_scaled(float(v)) for v in x.flat]).reshape(x.shape)


def upper_incomplete_gamma_nonpos(alpha, x):
    """Complementary incomplete gamma Gamma(alpha, x) for alpha in {0, -1}.

    Gamma(0, x) = E1(x); Gamma(-1, x) follows from
    Gamma(0, x) = -Gamma(-1, x) + exp(-x)/x.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"incomplete gamma requires x > 0, got {x}")
    if alpha == 0:
        return exp_integral_e1(x)
    if alpha == -1:
        return math.exp(-x) / x - exp_integral_e1(x)
    raise ValueError(f"alpha must be 0 or -1, got {alpha}")


def harmonic(n):
    """Exact harmonic number H_n = sum_{k=1}^n 1/k (H_0 = 0)."""
    if n < 0:
        raise ValueError(f"harmonic number needs n >= 0, got {n}")
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def alt_binom_over_k(n):
    """Exact sum_{k=1}^n C(n,k) (-1)^k / k; equals -H_n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return sum(
        (Fraction(math.comb(n, k) * (-1) ** k, k) for k in range(1, n + 1)),
        Fraction(0),
    )


def binom_id_shift2(n):
    """Exact sum_{k=0}^n C(n,k) (-1)^k / (k+2); equals 1/((n+2)(n+1))."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return sum(
        (Fraction(math.comb(n, k) * (-1) ** k, k + 2) for k in range(n + 1)),
        Fraction(0),
    )


def binom_id_shift2_sq(n):
    """Exact sum_{k=0}^n C(n,k) (-1)^k / (k+2)^2.

    Equals (H_{n+2} - 1) / ((n+2)(n+1)).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return sum(
        (Fraction(math.comb(n, k) * (-1) ** k, (k + 2) ** 2) for k in range(n + 1)),
        Fraction(0),
    )


def theta(d, n):
    """Log-moment integral int_0^inf z^n exp(-z/d) log(z) dz for d > 0.

    Closed form n! d^(n+1) (H_n - gamma + log d); validated against adaptive
    quadrature of the defining integral in the test suite.
    """
    d = float(d)
    if not d > 0.0:
        raise ValueError(f"theta requires d > 0, got {d}")
    if n < 0:
        raise ValueError(f"theta requires n >= 0, got {n}")
    return math.factorial(n) * d ** (n + 1) * (float(harmonic(n)) - EULER_GAMMA + math.log(d))

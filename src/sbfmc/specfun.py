"""Special functions used by the rate formulas: the overflow-free scaled
exponential integral exp(x) E1(x), and exact harmonic numbers.

Harmonic numbers are exact rationals (``fractions.Fraction``); everything
else is float64.
"""

import numpy as np

#: Euler-Mascheroni constant to double precision.
EULER_GAMMA = 0.57721566490153286061

_SERIES_MAX_TERMS = 60
_CF_MAX_ITERS = 300
_TINY = 1e-300


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


def exp_e1_scaled(x):
    """exp(x) * E1(x) for a scalar x > 0, overflow-free for arbitrarily
    large x.

    E1(x) = int_1^inf t^-1 exp(-x t) dt is evaluated by the power series
    below x = 1 and by a continued fraction above, with relative error at the
    1e-14 level throughout.  The continued-fraction branch produces the
    scaled value directly, so exp(x) is never formed; this is the quantity
    the rate formulas need.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"scaled E1 requires x > 0, got {x}")
    if x <= 1.0:
        return np.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


def harmonic(n):
    """Exact harmonic number H_n = sum_{k=1}^n 1/k (H_0 = 0)."""
    if n < 0:
        raise ValueError(f"harmonic number needs n >= 0, got {n}")
    from fractions import Fraction  # imported here, off the startup path

    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))

"""Pure numpy implementations of the hot kernels.

These mirror the compiled versions in ``sbfmc._kernels`` exactly; the active
implementation is chosen in :mod:`sbfmc.backend`.
"""

import numpy as np

BACKEND = "python"

_EULER_GAMMA = 0.57721566490153286061
_SERIES_MAX_TERMS = 60
_CF_MAX_ITERS = 300
_TINY = 1e-300


def _e1_series(x):
    """E1 on (0, 1] via the alternating power series around 0."""
    total = -_EULER_GAMMA - np.log(x)
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


def e1(x):
    """Exponential integral E1(x) for scalar x > 0."""
    x = float(x)
    if x <= 1.0:
        return _e1_series(x)
    return _e1_cf_scaled(x) * np.exp(-x)


def e1_scaled(x):
    """exp(x)*E1(x) for scalar x > 0, safe against overflow for any x."""
    x = float(x)
    if x <= 1.0:
        return np.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


def e1_array(x):
    """Vectorized E1 over a 1-D float array with entries > 0."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        out[i] = e1(x[i])
    return out


def e1_scaled_array(x):
    """Vectorized exp(x)*E1(x) over a 1-D float array with entries > 0."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        out[i] = e1_scaled(x[i])
    return out


"""Adaptive Gauss-Legendre quadrature with bisection refinement.

Used as the independent oracle for every rate integral; integrands are
smooth, so nested 15/31-point rules with panel bisection converge fast and
give a reliable error estimate.
"""

import numpy as np

_X15, _W15 = np.polynomial.legendre.leggauss(15)
_X31, _W31 = np.polynomial.legendre.leggauss(31)


class QuadratureError(Exception):
    """Raised when the requested tolerance was not met; carries the best
    estimate and the achieved error bound."""

    def __init__(self, estimate, error_bound):
        self.estimate = estimate
        self.error_bound = error_bound
        super().__init__(
            f"quadrature did not converge: estimate {estimate}, error bound {error_bound}")


def _panel(f, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    coarse = half * np.dot(_W15, f(mid + half * _X15))
    fine = half * np.dot(_W31, f(mid + half * _X31))
    return fine, abs(fine - coarse)


def adaptive_gauss_legendre(f, a, b, tol=1e-10, max_panels=4096):
    """Integrate vectorized ``f`` over [a, b] to absolute tolerance ``tol``.

    Returns (value, error_bound).  Raises QuadratureError when bisection
    cannot reach the tolerance within ``max_panels`` panels.
    """
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    width = b - a
    stack = [(a, b)]
    total, err_total = 0.0, 0.0
    panels = 0
    while stack:
        lo, hi = stack.pop()
        val, err = _panel(f, lo, hi)
        panels += 1
        if panels > max_panels:
            raise QuadratureError(total + val, err_total + err)
        if err <= tol * max(1e-30, (hi - lo) / width) or hi - lo < 1e-14 * width:
            total += val
            err_total += err
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    if err_total > tol:
        raise QuadratureError(total, err_total)
    return total, err_total

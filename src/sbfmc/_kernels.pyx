# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled exponential-integral (E1) kernels.  Signatures match
sbfmc._kernels_py."""

import numpy as np

cimport numpy as cnp
from libc.math cimport exp, fabs, log

cnp.import_array()

BACKEND = "cython"

cdef double _EULER_GAMMA = 0.57721566490153286061
cdef double _TINY = 1e-300


cdef double _e1_series(double x) nogil:
    cdef double total = -_EULER_GAMMA - log(x)
    cdef double term = 1.0
    cdef double delta, bound
    cdef int k
    for k in range(1, 60):
        term *= -x / k
        delta = -term / k
        total += delta
        bound = fabs(total)
        if bound < 1e-30:
            bound = 1e-30
        if fabs(delta) < 1e-18 * bound:
            break
    return total


cdef double _e1_cf_scaled(double x) nogil:
    cdef double b = x + 1.0
    cdef double c = 1.0 / _TINY
    cdef double d = 1.0 / b
    cdef double h = d
    cdef double a, delta
    cdef int i
    for i in range(1, 300):
        a = -1.0 * i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if fabs(delta - 1.0) < 1e-16:
            break
    return h


cdef double _e1(double x) nogil:
    if x <= 1.0:
        return _e1_series(x)
    return _e1_cf_scaled(x) * exp(-x)


cdef double _e1_scaled(double x) nogil:
    if x <= 1.0:
        return exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


def e1(double x):
    """Exponential integral E1(x) for scalar x > 0."""
    return _e1(x)


def e1_scaled(double x):
    """exp(x)*E1(x) for scalar x > 0, safe against overflow for any x."""
    return _e1_scaled(x)


def e1_array(x):
    """Vectorized E1 over a 1-D float array with entries > 0."""
    cdef cnp.ndarray[cnp.float64_t, ndim=1] xv = np.ascontiguousarray(x, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] out = np.empty(xv.shape[0], dtype=np.float64)
    cdef Py_ssize_t i
    for i in range(xv.shape[0]):
        out[i] = _e1(xv[i])
    return out


def e1_scaled_array(x):
    """Vectorized exp(x)*E1(x) over a 1-D float array with entries > 0."""
    cdef cnp.ndarray[cnp.float64_t, ndim=1] xv = np.ascontiguousarray(x, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] out = np.empty(xv.shape[0], dtype=np.float64)
    cdef Py_ssize_t i
    for i in range(xv.shape[0]):
        out[i] = _e1_scaled(xv[i])
    return out


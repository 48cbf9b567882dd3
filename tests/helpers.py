"""Helpers that only the tests use, kept out of the library: a
Gray-labelling check, one-frame encoding, exponential-vector draws, and the
special functions and exact binomial identities behind the paper's rate
algebra (incomplete gamma at order 0 and -1, three alternating binomial
sums, the log-moment integral theta)."""

import math
from fractions import Fraction

import numpy as np

from sbfmc import linksim
from sbfmc.sampling import SeededStream
from sbfmc.specfun import EULER_GAMMA, exp_integral_e1, harmonic


def gray_adjacency_ok(constellation):
    """True when grid-adjacent points differ in exactly one label bit."""
    pts, labs = constellation.points, constellation.labels
    step = np.min(np.abs(pts[:, None] - pts[None, :])[np.triu_indices(len(pts), 1)])
    ok = True
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(abs(pts[i] - pts[j]) - step) < 1e-9:
                ok &= int(labs[i] ^ labs[j]).bit_count() == 1
    return ok


def transmit_frame(cfg, bits, stream):
    """Encode one frame of payload bits into the (N, T) transmit signal."""
    ops = linksim._SchemeOps(cfg)
    bits = np.asarray(bits)
    expected = linksim.frame_bit_count(cfg, ops)
    if bits.size != expected:
        raise ValueError(f"expected {expected} bits, got {bits.size}")
    return ops.link.encode(cfg, ops, bits, stream.generator())[0]


def sample_exponential_vector(r, stream_or_rng, size=None):
    """r i.i.d. unit-mean exponentials; (size, r) block when size given."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    rng = stream_or_rng.generator() if isinstance(stream_or_rng, SeededStream) else stream_or_rng
    shape = (r,) if size is None else (int(size), r)
    return rng.standard_exponential(shape)


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

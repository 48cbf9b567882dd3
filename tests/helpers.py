"""Helpers that only the tests use, kept out of the library.

- Link-level references: a Gray-labelling check, one-frame encoding, a
  bit-error count of two index arrays, the single-block Alamouti and
  QOSTBC encoders, one user's Alamouti combiner, QOSTBC pair detection and the
  one-shot nearest-candidate search as standalone calls, and the Monte Carlo
  per-user rate estimator.
- Draws: i.i.d. CN(0, I_N) channel sets and exponential vectors, and a seed
  that is a stable function of a test's key.
- The CDF of each gain law, for the KS and histogram tests; the library
  keeps only the tails that set its quadrature limits.  And each law's
  sampler as one whole-array draw, whose bits the library's chunked
  samplers keep.
- The max-min covariance of one channel set, a batch of one.
- The special functions and exact binomial identities behind the paper's
  rate algebra: the exponential integral E1, incomplete gamma at order 0
  and -1, three alternating binomial sums and the log-moment integral theta.
- The paper's Bingham-weight per-user rate and its inputs, through the
  log-moments phi of hypoexp.py.  No command computes it: the CLI takes no
  per-user spectra mu and lambda.
"""

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import betainc, gammainc

from sbfmc import capacity, gainlaws, linksim, schemes, specfun
from sbfmc.sampling import ChannelSet, SeededStream, randn_complex
from sbfmc.specfun import EULER_GAMMA, harmonic

from hypoexp import ExponentialMixture, MixtureGain, phi_exp_mixture

# weight draws per step of estimate_user_rates_mc, which bounds its memory
_MC_CHUNK = 1 << 16


def gray_adjacency_ok(constellation):
    """True when grid-adjacent points differ in exactly one label bit (point
    i carries label i)."""
    pts = constellation.points
    step = np.min(np.abs(pts[:, None] - pts[None, :])[np.triu_indices(len(pts), 1)])
    ok = True
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(abs(pts[i] - pts[j]) - step) < 1e-9:
                ok &= (i ^ j).bit_count() == 1
    return ok


def count_bit_errors(idx_tx, idx_rx):
    """Total differing bits between transmitted and detected point indices."""
    return int(np.bitwise_count(np.bitwise_xor(idx_tx, idx_rx)).sum())


def alamouti_combine(y, g):
    """Combine the two received slots into per-symbol decision statistics.

    With y1 = g1 s1 + g2 s2 + n1 and y2 = -g1 s2* + g2 s1* + n2 the outputs
    are z_k = (|g1|^2 + |g2|^2) s_k + noise.
    """
    y1, y2 = y[..., 0], y[..., 1]
    g1, g2 = g[..., 0], g[..., 1]
    z1 = np.conj(g1) * y1 + g2 * np.conj(y2)
    z2 = np.conj(g2) * y1 - g1 * np.conj(y2)
    return np.stack([z1, z2], axis=-1)


def alamouti_encode(s1, s2):
    """2x2 orthogonal code block, rows = time slots, columns = branches."""
    return np.array([[s1, s2], [-np.conj(s2), np.conj(s1)]])


def qostbc_encode(s):
    """The 4x4 quasi-orthogonal block for symbols s = (s1, s2, s3, s4)."""
    s = np.asarray(s, dtype=np.complex128)
    if s.shape != (4,):
        raise ValueError("qostbc_encode needs exactly 4 symbols")
    return schemes._qostbc_code(s[None, :])[0].T


def detect_qostbc(y_blocks, g, constellation, power):
    """Exact ML detection of quasi-orthogonal blocks by pair decoupling.

    y_blocks : (B, 4) received slots per block for one user.
    g : (4,) effective stream channel B^H h.

    The code's ML metric splits exactly into a term in the symbol pair
    {s1, s4} and a term in {s2, s3} (Jafarkhani, IEEE Trans. Commun.,
    2001), so each pair is decided on its own over |C|^2 candidates, by
    the searches the link simulator builds for one user.

    Returns (B, 4) detected symbol indices.
    """
    searches = linksim._searches(schemes.SCHEMES["precoded_qostbc"].link, 4, constellation,
                                 g.conj()[None, :])[0]
    out = np.empty((y_blocks.shape[0], 4), dtype=np.int64)
    for pos, tuples, search in searches:
        out[:, pos] = tuples[search.query(y_blocks / math.sqrt(power))]
    return out


def _nearest_candidate(y, cand):
    """Index of the nearest candidate row for each observation row.

    y : (B, L) complex observations; cand : (K, L) complex candidates.
    Returns the (B,) indices k minimising sum_j |y[b, j] - cand[k, j]|^2,
    by a one-shot _CandidateSearch.
    """
    return linksim._CandidateSearch(cand).query(y)


def _mean_branch_gain(weights, h):
    """(count, M) gains |h^H w|^2 averaged over the branches."""
    return sum(np.abs(w @ h.conj().T) ** 2 for w in weights) / len(weights)


def estimate_user_rates_mc(cfg, ch, n_samples, stream):
    """Per-user empirical ergodic rates E[log(1 + P |h^H w|^2)] (or the
    Alamouti-gain analog) with standard errors; the minimum over users
    estimates the multicast rate.

    Deterministic schemes (bf, bf_alamouti) return the exact rate with
    zero standard error.
    """
    if schemes.SCHEMES[cfg.scheme].link.weights is None:
        raise ValueError(f"no rate estimator for scheme {cfg.scheme!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    h = ch.channels
    row = linksim._SchemeState(cfg, h)
    p = cfg.power
    if row.fixed is not None:
        rate = np.log1p(p * _mean_branch_gain(row.draw_weights(None, 1), h)[0])
        return rate, np.zeros_like(rate)
    rng = stream.generator()
    m = h.shape[0]
    acc = np.zeros(m)
    acc2 = np.zeros(m)
    done = 0
    while done < n_samples:
        n = min(_MC_CHUNK, n_samples - done)
        vals = np.log1p(p * _mean_branch_gain(row.draw_weights(rng, n), h))
        acc += vals.sum(axis=0)
        acc2 += (vals**2).sum(axis=0)
        done += n
    mean = acc / n_samples
    var = np.maximum(acc2 / n_samples - mean**2, 0.0)
    return mean, np.sqrt(var / n_samples)


def weight_sampler(scheme, w):
    """The BER scheme state of the weighted link scheme on the unit-trace
    covariance w, as transmit_row builds it: its draw_weights draws the
    scheme's branches (two for an Alamouti scheme), and root and rank are
    those of w."""
    return transmit_row(linksim.SchemeConfig(scheme, capacity.CovarianceMatrix(w),
                                             linksim.make_constellation("qpsk"), 1.0))


def stable_seed(key):
    """A 32-bit seed fixed by key's repr, the same in every process; the
    built-in string hash changes with PYTHONHASHSEED."""
    return zlib.crc32(repr(key).encode())


def sample_channel_set(n, m, stream):
    """M i.i.d. CN(0, I_N) channel vectors."""
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    rng = stream.generator()
    return ChannelSet(randn_complex(rng, m, n))


def solve_mc_covariance(ch, tol=1e-6, max_iter=100_000):
    """Max-min optimal covariance of one channel set: a batch of one."""
    return capacity.solve_mc_covariances([ch], tol, max_iter)[0]


def gain_cdf(law, t):
    """P(T <= t) for a gain law of sbfmc.gainlaws or a hypoexp.MixtureGain."""
    t = np.asarray(t, dtype=np.float64)
    if isinstance(law, MixtureGain):
        return law.mixture.cdf(t)
    if isinstance(law, gainlaws.ExponentialGain):
        return np.where(t >= 0, -np.expm1(-t), 0.0)
    if isinstance(law, gainlaws.ChiSquare4Gain):
        tt = np.clip(t, 0, None)
        return np.where(t >= 0, 1.0 - np.exp(-2.0 * tt) * (1.0 + 2.0 * tt), 0.0)
    if isinstance(law, gainlaws.GammaGain):
        return gammainc(law.rank, law.rank * np.clip(t, 0, None))
    r = law.rank
    if isinstance(law, gainlaws.EllipticGain):
        inside = 1 - (1 - np.clip(t, 0, r) / r) ** (r - 1)
        return np.where(t >= r, 1.0, np.where(t < 0, 0.0, inside))
    if isinstance(law, gainlaws.EllipticAlamoutiGain):
        return betainc(2.0, 2.0 * r - 2.0, np.clip(t, 0, r) / r)
    raise TypeError(f"no CDF for {law.name}")


def whole_array_sample(law, rng, size):
    """law.sample as one whole-array draw of `size`: the reference whose
    bits the library's samplers, which draw in blocks of CHUNK rows, keep."""
    if isinstance(law, gainlaws.PointMassGain):
        return np.full(size, law.location)
    if isinstance(law, gainlaws.ExponentialGain):
        return rng.standard_exponential(size)
    if isinstance(law, gainlaws.EllipticGain):
        g1 = rng.gamma(1.0, size=size)
        g2 = rng.gamma(law.rank - 1.0, size=size)
        return law.rank * g1 / (g1 + g2)
    if isinstance(law, gainlaws.ChiSquare4Gain):
        return 0.5 * rng.gamma(2.0, size=size)
    if isinstance(law, gainlaws.EllipticAlamoutiGain):
        g1 = rng.gamma(2.0, size=size)
        g2 = rng.gamma(2.0 * law.rank - 2.0, size=size)
        return law.rank * g1 / (g1 + g2)
    if isinstance(law, gainlaws.GammaGain):
        zeta = rng.standard_exponential((size, law.rank))
        return zeta @ np.full(law.rank, 1.0 / law.rank)
    raise TypeError(f"no whole-array sampler for {law!r}")


def _e1(x):
    """E1(x) for a float x > 0."""
    if x <= 1.0:
        return specfun._e1_series(x)
    return specfun._e1_cf_scaled(x) * np.exp(-x)


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


def transmit_frame(cfg, bits, stream):
    """Encode one frame of payload bits into the (N, T) transmit signal at
    cfg.power: the encoder's unit-power signal times sqrt(P)."""
    row = transmit_row(cfg)
    bits = np.asarray(bits)
    if bits.size != row.n_bits:
        raise ValueError(f"expected {row.n_bits} bits, got {bits.size}")
    x = row.encode(row, bits, stream.generator(), linksim._Buffers())[0]
    return math.sqrt(cfg.power) * x


def transmit_row(cfg):
    """cfg's BER scheme state on one all-ones user channel: the transmit
    side (bits per frame, encoder, weights) does not depend on the channel."""
    return linksim._SchemeState(cfg, np.ones((1, cfg.covariance.entries.shape[0]),
                                              dtype=complex))


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

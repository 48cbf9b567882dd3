"""Distribution of a weighted sum of i.i.d. unit-mean exponentials.

Z = sum_k d_k zeta_k is hypoexponential; with the weights grouped into c
distinct means (d_1 > ... > d_c, multiplicities r_k) its density is

    p(z) = prod_n d_n^{-r_n} * sum_k sum_{m=1}^{r_k}
           Psi[k,m] / (r_k - m)! * (-1)^{r_k - m} * z^{r_k - m} * exp(-z/d_k)

where the Psi coefficients come from the partial fractions of the Laplace
transform prod_n (1 + d_n s)^{-r_n}.  The coefficients are computed in exact
rational arithmetic (floats are exact rationals), which keeps repeated and
nearly-equal means stable for the small total ranks used here.

A test oracle: the log-moment phi of any weight vector, and the law of the
weighted sum as a density, CDF and sampler.  The library needs only the
equal-weight case, gainlaws.GammaGain, which the tests check against it.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import gammainc

from sbfmc import specfun

#: means closer than this (relative) must be merged into one multiplicity
MERGE_TOL = 1e-10


def _log_derivatives_at_pole(means, mults, k, q_max):
    """Derivatives 1..q_max of log prod_{n != k} (1 + d_n s)^{-r_n} at
    s = -1/d_k, as exact Fractions."""
    dk = Fraction(means[k])
    out = [Fraction(0)] * (q_max + 1)
    for j in range(1, q_max + 1):
        acc = Fraction(0)
        for n, (dn_f, rn) in enumerate(zip(means, mults)):
            if n == k:
                continue
            dn = Fraction(dn_f)
            # j-th derivative of log(1 + d_n s) at s0 = -1/d_k
            acc += rn * (-1) ** (j - 1) * math.factorial(j - 1) * (dn * dk / (dk - dn)) ** j
        out[j] = -acc
    return out


def partial_fraction_coeffs(distinct_means, multiplicities):
    """Psi coefficient matrix for the hypoexponential density above.

    Parameters
    ----------
    distinct_means : strictly decreasing positive floats d_1 > ... > d_c.
    multiplicities : positive integers r_1 ... r_c.

    Returns
    -------
    (c, max(r)) float array; entry [k, m-1] holds Psi[k+1, m], zero-padded.

    Raises
    ------
    ValueError if any two means are numerically coincident (closer than
    MERGE_TOL relative); merge them into one multiplicity instead.
    """
    means = [float(d) for d in distinct_means]
    mults = [int(r) for r in multiplicities]
    if len(means) != len(mults) or not means:
        raise ValueError("means and multiplicities must be non-empty and equal length")
    if any(d <= 0 for d in means):
        raise ValueError("means must be positive")
    if any(r < 1 for r in mults):
        raise ValueError("multiplicities must be >= 1")
    dmax = max(means)
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            if abs(means[i] - means[j]) < MERGE_TOL * dmax:
                raise ValueError(
                    f"means {means[i]} and {means[j]} are numerically coincident; "
                    "merge them into a single component with summed multiplicity"
                )

    prod_dr = Fraction(1)
    for d, r in zip(means, mults):
        prod_dr *= Fraction(d) ** r

    c = len(means)
    rmax = max(mults)
    psi = np.zeros((c, rmax))
    for k in range(c):
        rk = mults[k]
        dk = Fraction(means[k])
        # G(s) = prod_{n != k} (1 + d_n s)^{-r_n}; Taylor data at the pole
        g0 = Fraction(1)
        for n, (dn_f, rn) in enumerate(zip(means, mults)):
            if n == k:
                continue
            dn = Fraction(dn_f)
            g0 *= (dk / (dk - dn)) ** rn
        logd = _log_derivatives_at_pole(means, mults, k, rk - 1)
        g = [g0] + [Fraction(0)] * (rk - 1)
        for q in range(1, rk):
            g[q] = sum(
                math.comb(q - 1, j) * g[j] * logd[q - j] for j in range(q)
            )
        for m in range(1, rk + 1):
            val = (
                (-1) ** (rk - m)
                * g[m - 1]
                / (math.factorial(m - 1) * dk**rk)
                * prod_dr
            )
            psi[k, m - 1] = float(val)
    return psi


@dataclass(frozen=True)
class ExponentialMixture:
    """Grouped description of Z = sum_k d_k zeta_k, zeta i.i.d. Exp(1)."""

    distinct_means: tuple
    multiplicities: tuple
    psi: np.ndarray = field(repr=False)
    dropped_zeros: int = 0

    @classmethod
    def from_weights(cls, weights, merge_tol=MERGE_TOL):
        """Build from a raw weight vector, grouping equal means and
        dropping exact zeros (count reported in ``dropped_zeros``)."""
        w = np.asarray(weights, dtype=np.float64).ravel()
        if w.size == 0:
            raise ValueError("empty weight vector")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        dropped = int(np.sum(w == 0.0))
        w = w[w > 0.0]
        if w.size == 0:
            raise ValueError("all weights are zero; mixture is degenerate")
        w = np.sort(w)[::-1]
        means, mults = [w[0]], [1]
        for v in w[1:]:
            if means[-1] - v < merge_tol * w[0]:
                mults[-1] += 1
            else:
                means.append(v)
                mults.append(1)
        psi = partial_fraction_coeffs(means, mults)
        mix = cls(tuple(means), tuple(mults), psi, dropped)
        total = mix.pdf_integral()
        if not abs(total - 1.0) <= 1e-8:  # a NaN total fails too
            raise ValueError(f"partial-fraction density integrates to {total}, not 1")
        return mix

    @property
    def total_rank(self):
        return sum(self.multiplicities)

    @property
    def expanded_means(self):
        """Means repeated per multiplicity (length total_rank)."""
        return np.repeat(np.asarray(self.distinct_means), self.multiplicities)

    def _prefactor(self):
        return math.prod(d ** -r for d, r in zip(self.distinct_means, self.multiplicities))

    def _terms(self):
        """Yield (coef, q, d) with density = prefactor * sum coef z^q e^{-z/d}."""
        for k, (d, rk) in enumerate(zip(self.distinct_means, self.multiplicities)):
            for m in range(1, rk + 1):
                q = rk - m
                coef = self.psi[k, m - 1] / math.factorial(q) * (-1) ** q
                yield coef, q, d

    def pdf(self, z):
        z = np.asarray(z, dtype=np.float64)
        out = np.zeros_like(z)
        for coef, q, d in self._terms():
            out += coef * z**q * np.exp(-z / d)
        return self._prefactor() * out

    def cdf(self, z):
        z = np.asarray(z, dtype=np.float64)
        out = np.zeros_like(z)
        for coef, q, d in self._terms():
            # int_0^z t^q e^{-t/d} dt = q! d^(q+1) P(q+1, z/d)
            out += coef * math.factorial(q) * d ** (q + 1) * gammainc(q + 1, z / d)
        return self._prefactor() * out

    def pdf_integral(self):
        """Analytic integral of the density over [0, inf); should be 1."""
        total = sum(
            coef * math.factorial(q) * d ** (q + 1) for coef, q, d in self._terms()
        )
        return self._prefactor() * total

    def sample(self, rng, size):
        zeta = rng.standard_exponential((size, self.total_rank))
        return zeta @ self.expanded_means


@dataclass(frozen=True)
class MixtureGain:
    """Weighted sum of unit-mean exponentials (not unit mean in general)."""

    mixture: ExponentialMixture
    name = "exponential_mixture"
    support = (0.0, np.inf)

    def cdf(self, t):
        return self.mixture.cdf(t)

    def sample(self, rng, size):
        return self.mixture.sample(rng, size)


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

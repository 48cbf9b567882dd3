import numpy as np
import pytest
from scipy.integrate import quad

from hypoexp import ExponentialMixture, partial_fraction_coeffs


def test_single_component_is_plain_exponential():
    mix = ExponentialMixture.from_weights([0.7])
    z = np.linspace(0.0, 5.0, 50)
    assert np.allclose(mix.pdf(z), np.exp(-z / 0.7) / 0.7, atol=1e-14)
    assert abs(mix.pdf_integral() - 1.0) < 1e-14


def test_two_distinct_means_classical_mixture():
    # means (2, 1): p(z) = e^{-z/2} - e^{-z}
    mix = ExponentialMixture.from_weights([2.0, 1.0])
    z = np.linspace(0.0, 12.0, 100)
    assert np.allclose(mix.pdf(z), np.exp(-z / 2) - np.exp(-z), atol=1e-13)


def test_all_distinct_reduces_to_classical_weights():
    means = [0.5, 0.3, 0.2]
    mix = ExponentialMixture.from_weights(means)
    z = np.linspace(0.01, 6.0, 60)
    expected = np.zeros_like(z)
    for k, dk in enumerate(means):
        wk = np.prod([dk / (dk - dn) for n, dn in enumerate(means) if n != k])
        expected += wk * np.exp(-z / dk) / dk
    assert np.allclose(mix.pdf(z), expected, atol=1e-12)


def test_repeated_mean_is_erlang():
    # two equal means d: z e^{-z/d} / d^2
    mix = ExponentialMixture.from_weights([0.5, 0.5])
    assert mix.multiplicities == (2,)
    z = np.linspace(0.0, 8.0, 80)
    assert np.allclose(mix.pdf(z), z * np.exp(-2 * z) * 4.0, atol=1e-13)


def test_grouping_tolerance():
    mix = ExponentialMixture.from_weights([0.5, 0.5 + 1e-13, 0.2])
    assert mix.multiplicities == (2, 1)


def test_coincident_means_rejected():
    with pytest.raises(ValueError, match="merge"):
        partial_fraction_coeffs([0.5, 0.5 - 1e-12], [1, 1])


def test_zero_weights_dropped_and_counted():
    mix = ExponentialMixture.from_weights([0.6, 0.0, 0.4, 0.0])
    assert mix.dropped_zeros == 2
    assert mix.distinct_means == (0.6, 0.4)


def test_pdf_integral_mixed_multiplicities():
    for w in ([0.4, 0.3, 0.3], [0.25, 0.25, 0.25, 0.25], [0.5, 0.2, 0.2, 0.1]):
        mix = ExponentialMixture.from_weights(w)
        assert abs(mix.pdf_integral() - 1.0) < 1e-10
        ref, _ = quad(mix.pdf, 0, np.inf, limit=400)
        assert abs(ref - 1.0) < 1e-8


def test_cdf_matches_pdf_integral():
    mix = ExponentialMixture.from_weights([0.45, 0.3, 0.25])
    for x in (0.2, 0.8, 2.5):
        ref, _ = quad(mix.pdf, 0, x, limit=200)
        assert abs(mix.cdf(x) - ref) < 1e-10


def test_histogram_against_samples():
    # 1e6 samples, 50 bins, max deviation within 5 binomial SEs
    mix = ExponentialMixture.from_weights([0.4, 0.3, 0.3])
    rng = np.random.Generator(np.random.Philox(key=[20240517, 0]))
    n = 10**6
    z = mix.sample(rng, n)
    hi = np.quantile(z, 0.999)
    edges = np.linspace(0.0, hi, 51)
    counts, _ = np.histogram(z, bins=edges)
    probs = np.diff(mix.cdf(edges))
    se = np.sqrt(n * probs * (1 - probs))
    assert np.all(np.abs(counts - n * probs) <= 5 * se)


def test_degenerate_inputs():
    with pytest.raises(ValueError):
        ExponentialMixture.from_weights([0.0, 0.0])
    with pytest.raises(ValueError):
        ExponentialMixture.from_weights([])
    with pytest.raises(ValueError):
        ExponentialMixture.from_weights([-0.1, 1.1])


def test_nan_density_rejected():
    # at rank 150 the prefactor 150^150 overflows and the density's integral
    # is NaN, which must fail the normalization check
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="integrates to"):
        ExponentialMixture.from_weights(np.full(150, 1.0 / 150))

import math

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp, kstwobign

from sbfmc import gainlaws, rates, sampling, specfun
from sbfmc.rates import SchemeParams
from sbfmc.sampling import (
    ChannelSet,
    SeededStream,
    WeightSampler,
    psd_sqrt,
)

from helpers import sample_channel_set, sample_exponential_vector
from hypoexp import ExponentialMixture, MixtureGain, phi_exp_mixture

N_KS = 10**5


def ks_critical(n, alpha=1e-3):
    return kstwobign.ppf(1 - alpha) / math.sqrt(n)


def random_psd(rng, n, rank=None):
    rank = rank or n
    b = sampling.randn_complex(rng, n, rank)
    w = b @ b.conj().T
    return w / np.trace(w).real


class TestSeededStream:
    def test_replay_identical(self):
        s = SeededStream(123, 45)
        a = s.generator().standard_normal(32)
        b = s.generator().standard_normal(32)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = SeededStream(123, 0).generator().standard_normal(8)
        b = SeededStream(123, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_substreams_disjoint_and_stable(self):
        s = SeededStream(9, 9)
        a1 = s.substream(3).standard_normal(8)
        a2 = s.substream(3).standard_normal(8)
        b = s.substream(4).standard_normal(8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    @pytest.mark.parametrize("shape", [(1,), (37,), (16, 1440), (3, 5), (1, 1)])
    def test_randn_complex_matches_two_draw_formula(self, shape):
        # one (2, *shape) draw filled in place must reproduce, bit for bit,
        # the real-then-imaginary draws divided by sqrt(2), and leave the
        # stream at the same position
        for seed in (0, 7, 20240801, 2**63 + 5):
            rng, ref = SeededStream(seed, 3).generator(), SeededStream(seed, 3).generator()
            got = sampling.randn_complex(rng, *shape)
            want = (ref.standard_normal(shape) + 1j * ref.standard_normal(shape)) / np.sqrt(2.0)
            assert got.dtype == np.complex128 and got.shape == shape
            assert np.array_equal(got.view(np.float64), want.view(np.float64)), (seed, shape)
            assert rng.standard_normal() == ref.standard_normal()


class TestChannelSet:
    def test_moments(self):
        ch = sample_channel_set(4, 2500, SeededStream(1, 0))
        h = ch.channels.ravel()
        n = h.size
        assert abs(h.mean()) <= 4 / math.sqrt(n)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) <= 4 * math.sqrt(2 / n)

    def test_replay(self):
        a = sample_channel_set(4, 8, SeededStream(7, 3)).channels
        b = sample_channel_set(4, 8, SeededStream(7, 3)).channels
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelSet(np.zeros((2, 3), dtype=complex))
        with pytest.raises(ValueError):
            sample_channel_set(0, 1, SeededStream(0))


class TestPsdSqrt:
    def test_identity(self):
        b, r = psd_sqrt(np.eye(4) / 4)
        assert r == 4
        assert np.linalg.norm(b @ b.conj().T - np.eye(4) / 4) <= 1e-12

    def test_rank_one(self):
        h = np.array([1.0, 1j, -1.0, 0.5]) / math.sqrt(3.25)
        w = np.outer(h, h.conj())
        b, r = psd_sqrt(w)
        assert r == 1
        assert np.linalg.norm(b @ b.conj().T - w) <= 1e-12

    def test_random_psd_reconstruction(self):
        rng = SeededStream(31, 0).generator()
        for rank in (2, 3, 4):
            w = random_psd(rng, 4, rank)
            b, r = psd_sqrt(w)
            assert r == rank
            assert np.linalg.norm(b @ b.conj().T - w) <= 1e-10

    def test_non_hermitian_rejected(self):
        w = np.eye(3, dtype=complex)
        w[0, 1] = 1e-6
        with pytest.raises(ValueError):
            psd_sqrt(w)


class TestWeightSamplers:
    def setup_method(self):
        rng = SeededStream(77, 0).generator()
        self.w = random_psd(rng, 4, 3)
        self.h = sampling.randn_complex(rng, 4)
        self.rho = float(np.real(self.h.conj() @ self.w @ self.h))

    def test_gauss_covariance_moment(self):
        ws = WeightSampler.from_covariance("gauss_sbf", self.w)
        n = 10**5
        draws = ws.sample(SeededStream(5, 1).generator(), n)
        prods = draws[:, :, None] * draws[:, None, :].conj()  # (n, N, N)
        est = prods.mean(axis=0)
        se = np.sqrt(prods.real.var(axis=0) + prods.imag.var(axis=0)) / math.sqrt(n)
        assert np.all(np.abs(est - self.w) <= 5 * np.maximum(se, 1e-12))

    def test_gauss_rate_closure(self):
        ws = WeightSampler.from_covariance("gauss_sbf", self.w)
        draws = ws.sample(SeededStream(5, 2).generator(), 2 * 10**5)
        vals = np.log1p(10.0 * np.abs(draws @ self.h.conj()) ** 2)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        closed = rates.rate_sbf_gauss(SchemeParams(self.rho, 10.0))
        assert abs(vals.mean() - closed) <= 3 * se

    def test_gauss_rank_one_gain_is_exponential(self):
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        ws = WeightSampler.from_covariance("gauss_sbf", np.outer(e1, e1.conj()))
        draws = ws.sample(SeededStream(5, 3).generator(), N_KS)
        h = np.array([0.5 - 1j, 0.2, 0.0, 1.0])
        rho = abs(h[0]) ** 2
        t = np.abs(draws @ h.conj()) ** 2 / rho
        stat = kstest(t, lambda x: -np.expm1(-x)).statistic
        assert stat <= ks_critical(N_KS)

    def test_ellip_rank_one_point_mass(self):
        e1 = np.zeros(3, dtype=complex)
        e1[0] = 1.0
        ws = WeightSampler.from_covariance("ellip_sbf", np.outer(e1, e1.conj()))
        draws = ws.sample(SeededStream(5, 4).generator(), 1000)
        t = np.abs(draws[:, 0]) ** 2
        assert np.allclose(t, 1.0, atol=1e-12)

    def test_ellip_pair_rank_one_point_mass(self):
        # r * Beta(2, 2r-2) degenerates to a point mass at 1 for r = 1: the
        # Alamouti pair's combined gain on a rank-1 W* does not fade
        rng = SeededStream(5, 8).generator()
        w = random_psd(rng, 4, 1)
        h = sampling.randn_complex(rng, 4)
        rho = float(np.real(h.conj() @ w @ h))
        ws = WeightSampler.from_covariance("ellip_sbf", w)
        assert ws.rank == 1
        w1, w2 = ws.sample_pair(SeededStream(5, 9).generator(), 1000)
        t = (np.abs(w1 @ h.conj()) ** 2 + np.abs(w2 @ h.conj()) ** 2) / (2 * rho)
        assert np.allclose(t, 1.0, rtol=0.0, atol=1e-12)

    def test_ellip_r2_gain_uniform(self):
        rng = SeededStream(5, 5).generator()
        w = random_psd(rng, 4, 2)
        ws = WeightSampler.from_covariance("ellip_sbf", w)
        h = sampling.randn_complex(rng, 4)
        rho = float(np.real(h.conj() @ w @ h))
        draws = ws.sample(SeededStream(5, 6).generator(), N_KS)
        t = np.abs(draws @ h.conj()) ** 2 / rho
        stat = kstest(t, lambda x: np.clip(x / 2, 0, 1)).statistic
        assert stat <= ks_critical(N_KS)

    def test_ellip_rate_closure(self):
        ws = WeightSampler.from_covariance("ellip_sbf", self.w)
        draws = ws.sample(SeededStream(5, 7).generator(), 2 * 10**5)
        vals = np.log1p(10.0 * np.abs(draws @ self.h.conj()) ** 2)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        closed = rates.rate_sbf_ellip(SchemeParams(self.rho, 10.0, 3))
        assert abs(vals.mean() - closed) <= 3 * se

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            WeightSampler.from_covariance("bf", self.w)

    def test_named_draw_helpers(self):
        gauss = WeightSampler.from_covariance("gauss_sbf", self.w)
        ellip = WeightSampler.from_covariance("ellip_sbf", self.w)
        one = gauss.sample(SeededStream(5, 30).generator(), 1)[0]
        block = gauss.sample(SeededStream(5, 30).generator(), 4)
        assert one.shape == (4,) and block.shape == (4, 4)
        assert np.array_equal(one, gauss.sample(SeededStream(5, 30).generator(), 1)[0])
        w_e = ellip.sample(SeededStream(5, 31).generator(), 100)
        # ellipsoid draws have fixed squared norm r inside the root's frame
        g = np.linalg.lstsq(ellip.root, w_e.T, rcond=None)[0]
        assert np.allclose(np.sum(np.abs(g) ** 2, axis=0), ellip.rank, atol=1e-9)


LAWS = {
    "exponential": gainlaws.ExponentialGain(),
    "elliptic_r3": gainlaws.EllipticGain(3),
    "chi_square_4": gainlaws.ChiSquare4Gain(),
    "elliptic_alamouti_r2": gainlaws.EllipticAlamoutiGain(2),
    "mixture": MixtureGain(
        ExponentialMixture.from_weights([0.5, 0.3, 0.2])
    ),
    "gamma_r3": gainlaws.GammaGain(3),
}


class TestGainLaws:
    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_ks_against_analytic_cdf(self, name):
        law = LAWS[name]
        draws = law.sample(SeededStream(6, hash(name) % 2**32).generator(), N_KS)
        stat = kstest(draws, lambda x: law.cdf(x)).statistic
        assert stat <= ks_critical(N_KS), name

    def test_chi4_moments(self):
        n = 10**6
        draws = gainlaws.ChiSquare4Gain().sample(SeededStream(6, 1).generator(), n)
        assert abs(draws.mean() - 1.0) <= 4 * math.sqrt(0.5 / n)

    def test_ellip_alam_histogram(self):
        # density 3 (t/2)(1 - t/2) on [0, 2], 50 bins, 5-sigma band
        law = gainlaws.EllipticAlamoutiGain(2)
        n = 10**6
        draws = law.sample(SeededStream(6, 2).generator(), n)
        edges = np.linspace(0, 2, 51)
        counts, _ = np.histogram(draws, bins=edges)
        probs = np.diff(law.cdf(edges))
        se = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(counts - n * probs) <= 5 * se)

    def test_exponential_ties_to_rate(self):
        draws = gainlaws.ExponentialGain().sample(SeededStream(6, 3).generator(), 10**6)
        vals = np.log1p(10.0 * draws)
        se = vals.std(ddof=1) / 1000.0
        assert abs(vals.mean() - specfun.exp_e1_scaled(0.1)) <= 3 * se

    def test_point_mass_for_rank_one(self):
        law = gainlaws.elliptic_gain(1)
        assert isinstance(law, gainlaws.PointMassGain)
        assert np.all(law.sample(SeededStream(6, 4).generator(), 10) == 1.0)


class TestGammaGain:
    """The equal-weight mixture, checked against the partial-fraction oracle
    up to rank 50 (beyond about 72 the oracle's z^(r-1) d^-r product goes
    subnormal in the tail) and against mpmath above."""

    @staticmethod
    def grid(law):
        return np.linspace(0.0, gainlaws.truncation_point(law), 401)

    def test_draws_match_mixture(self):
        for r in range(1, 41):
            mix = ExponentialMixture.from_weights(np.full(r, 1.0 / r))
            a = gainlaws.GammaGain(r).sample(SeededStream(7, r).generator(), 1000)
            b = mix.sample(SeededStream(7, r).generator(), 1000)
            assert np.array_equal(a, b), r

    def test_against_mixture_oracle(self):
        for r in range(1, 51):
            law = gainlaws.GammaGain(r)
            mix = ExponentialMixture.from_weights(np.full(r, 1.0 / r))
            z = self.grid(law)
            ref = mix.pdf(z)
            big = ref > 1e-200
            assert np.all(np.abs(law.pdf(z[big]) / ref[big] - 1.0) <= 1e-12), r
            assert law.pdf(0.0) == ref[0], r
            assert np.max(np.abs(law.cdf(z) - mix.cdf(z))) <= 1e-14, r
            assert abs(law.log_moment() - phi_exp_mixture(mix)) <= 1e-14, r

    @pytest.mark.parametrize("r", [150, 1000])
    def test_pdf_against_mpmath(self, r):
        mp = pytest.importorskip("mpmath")
        law = gainlaws.GammaGain(r)
        z = self.grid(law)[1:]
        got = law.pdf(z)
        with mp.workdps(40):
            ref = np.array([float(mp.mpf(r) ** r * mp.mpf(t) ** (r - 1) * mp.exp(-r * mp.mpf(t))
                                  / mp.gamma(r)) for t in z])
        big = ref > 1e-200
        assert big.sum() > 20
        assert np.all(np.abs(got[big] / ref[big] - 1.0) <= 1e-11)


class TestWeightLawEquivalence:
    """Gains through the weight samplers match direct gain-law draws."""

    def _setup(self, rank):
        rng = SeededStream(88, rank).generator()
        w = random_psd(rng, 4, rank)
        h = sampling.randn_complex(rng, 4)
        rho = float(np.real(h.conj() @ w @ h))
        return w, h, rho

    @pytest.mark.parametrize(
        "scheme,law_name,rank",
        [
            ("gauss_sbf", "exponential", 3),
            ("ellip_sbf", "elliptic", 3),
            ("gauss_sbf", "chi_square_4", 3),
            ("ellip_sbf", "elliptic_alamouti", 3),
        ],
    )
    def test_two_sample_ks(self, scheme, law_name, rank):
        w, h, rho = self._setup(rank)
        ws = WeightSampler.from_covariance(scheme, w)
        rng = SeededStream(89, hash((scheme, law_name)) % 2**32).generator()
        if law_name in ("chi_square_4", "elliptic_alamouti"):
            w1, w2 = ws.sample_pair(rng, N_KS)
            induced = (np.abs(w1 @ h.conj()) ** 2 + np.abs(w2 @ h.conj()) ** 2) / (2 * rho)
        else:
            induced = np.abs(ws.sample(rng, N_KS) @ h.conj()) ** 2 / rho
        law = rates.gain_law_for_scheme(
            {
                "exponential": "gauss_sbf",
                "elliptic": "ellip_sbf",
                "chi_square_4": "gauss_sbf_alamouti",
                "elliptic_alamouti": "ellip_sbf_alamouti",
            }[law_name],
            rank,
        )
        direct = law.sample(SeededStream(90, 1).generator(), N_KS)
        stat, _ = ks_2samp(induced, direct)
        # two-sample critical value: c(alpha) * sqrt(2/n)
        assert stat <= kstwobign.ppf(1 - 1e-3) * math.sqrt(2.0 / N_KS)


class TestExponentialVector:
    def test_moments(self):
        z = sample_exponential_vector(4, SeededStream(2, 0), 250_000)
        n = z.size
        assert abs(z.mean() - 1.0) <= 4 / math.sqrt(n)

    def test_one_hot_log_moment(self):
        z = sample_exponential_vector(3, SeededStream(2, 1), 10**6)
        vals = np.log(z[:, 0])
        se = vals.std(ddof=1) / 1000.0
        assert abs(vals.mean() + specfun.EULER_GAMMA) <= 3 * se

    def test_determinism(self):
        a = sample_exponential_vector(5, SeededStream(2, 2), 10)
        b = sample_exponential_vector(5, SeededStream(2, 2), 10)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_exponential_vector(0, SeededStream(2, 3))

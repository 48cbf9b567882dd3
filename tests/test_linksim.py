import math

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import kstest, kstwobign

from sbfmc import capacity, linksim, rates, sampling
from sbfmc.capacity import CovarianceMatrix
from sbfmc.linksim import (
    SchemeConfig,
    alamouti_combine,
    alamouti_encode,
    bits_to_symbol_indices,
    count_bit_errors,
    detect_qostbc,
    estimate_user_rates_mc,
    frame_bit_count,
    gray_adjacency_ok,
    make_constellation,
    ml_detect_exhaustive,
    qostbc_encode,
    simulate_worst_user_ber,
    transmit_frame,
)
from sbfmc.sampling import ChannelSet, SeededStream, sample_channel_set

QPSK = make_constellation("qpsk")
BPSK = make_constellation("bpsk")
QAM16 = make_constellation("qam16")

RANK4_COV = CovarianceMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))


def qfunc(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


def single_user_channel():
    h = np.zeros((1, 4), dtype=complex)
    h[0, 0] = 1.0
    return ChannelSet(h)


class TestConstellations:
    @pytest.mark.parametrize("con", [BPSK, QPSK, QAM16])
    def test_unit_energy_and_gray(self, con):
        assert abs(np.mean(np.abs(con.points) ** 2) - 1.0) < 1e-12
        assert gray_adjacency_ok(con)

    def test_bit_roundtrip(self):
        rng = SeededStream(1, 0).generator()
        for con in (BPSK, QPSK, QAM16):
            bits = rng.integers(0, 2, 40 * con.bits_per_symbol, dtype=np.uint8)
            idx = bits_to_symbol_indices(bits, con)
            labels = con.labels[idx]
            bps = con.bits_per_symbol
            unpacked = ((labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1).ravel()
            assert np.array_equal(unpacked, bits)

    def test_count_bit_errors(self):
        idx_tx = np.array([0, 1, 2, 3])
        assert count_bit_errors(idx_tx, idx_tx, QPSK) == 0
        flipped = np.array([3, 2, 1, 0])
        total = sum(
            int(QPSK.labels[a] ^ QPSK.labels[b]).bit_count()
            for a, b in zip(idx_tx, flipped)
        )
        assert count_bit_errors(idx_tx, flipped, QPSK) == total


class TestAlamouti:
    def test_orthogonality_random_symbols(self):
        rng = SeededStream(2, 0).generator()
        for _ in range(1000):
            s1, s2 = sampling.randn_complex(rng, 2)
            c = alamouti_encode(s1, s2)
            gram = c @ c.conj().T
            target = (abs(s1) ** 2 + abs(s2) ** 2) * np.eye(2)
            assert np.linalg.norm(gram - target) <= 1e-12

    def test_combine_degenerate_branch(self):
        s1, s2 = 0.3 + 0.4j, -1.1 + 0.2j
        g = np.array([1.0 + 0j, 0.0 + 0j])
        y = np.array([s1, -np.conj(s2)])
        z = alamouti_combine(y, g)
        assert np.allclose(z, [s1, s2], atol=1e-15)

    def test_combine_gain(self):
        rng = SeededStream(2, 1).generator()
        s = sampling.randn_complex(rng, 2)
        g = sampling.randn_complex(rng, 2)
        y = np.array(
            [g[0] * s[0] + g[1] * s[1], -g[0] * np.conj(s[1]) + g[1] * np.conj(s[0])]
        )
        z = alamouti_combine(y, g)
        gain = np.abs(g[0]) ** 2 + np.abs(g[1]) ** 2
        assert np.allclose(z, gain * s, atol=1e-12)

    def test_pair_gain_law_chi4(self):
        # gains from Gaussian weight pairs follow 4 t e^{-2t}
        w = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
        ws = sampling.WeightSampler.from_covariance("gauss_sbf", w)
        rng = SeededStream(2, 2).generator()
        w1, w2 = ws.sample_pair(rng, 10**5)
        h = sampling.randn_complex(rng, 4)
        rho = float(np.real(h.conj() @ w @ h))
        xi = (np.abs(w1 @ h.conj()) ** 2 + np.abs(w2 @ h.conj()) ** 2) / (2 * rho)
        law = rates.gain_law_for_scheme("gauss_sbf_alamouti")
        stat = kstest(xi, lambda x: law.cdf(x)).statistic
        assert stat <= kstwobign.ppf(1 - 1e-3) / math.sqrt(xi.size)


class TestQostbc:
    def test_unit_vector_gives_identity(self):
        assert np.allclose(qostbc_encode([1, 0, 0, 0]), np.eye(4))

    def test_energy(self):
        rng = SeededStream(3, 0).generator()
        s = sampling.randn_complex(rng, 4)
        c = qostbc_encode(s)
        assert abs(np.linalg.norm(c) ** 2 - 4 * np.sum(np.abs(s) ** 2)) <= 1e-12

    def test_quasi_orthogonal_coupling_pattern(self):
        rng = SeededStream(3, 1).generator()
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 3] = mask[3, 0] = mask[1, 2] = mask[2, 1] = True
        for _ in range(1000):
            s = sampling.randn_complex(rng, 4)
            gram = qostbc_encode(s) @ qostbc_encode(s).conj().T
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off[~mask])) <= 1e-12

    def test_pair_metric_decoupling(self):
        # the {s1,s4} and {s2,s3} halves of the code have cancelling
        # cross-Gram, which is what makes pair detection exact ML
        rng = SeededStream(3, 2).generator()
        for _ in range(200):
            s = sampling.randn_complex(rng, 4)
            c14 = qostbc_encode(np.array([s[0], 0, 0, s[3]]))
            c23 = qostbc_encode(np.array([0, s[1], s[2], 0]))
            cross = c14 @ c23.conj().T + c23 @ c14.conj().T
            assert np.max(np.abs(cross)) <= 1e-12

    def test_pair_equals_full_search_bpsk(self):
        # noisy blocks at low SNR so errors occur, decisions must agree
        rng = SeededStream(3, 3).generator()
        g = sampling.randn_complex(rng, 4)
        n_blocks = 10**4
        tuples = rng.integers(0, 2, (n_blocks, 4))
        blocks = linksim._qostbc_encode_batch(BPSK.points[tuples])
        power = 10 ** (0.2)
        y = math.sqrt(power) * np.einsum("j,bjt->bt", g.conj(), blocks)
        y = y + sampling.randn_complex(rng, n_blocks, 4)
        det_pair = detect_qostbc(y, g, BPSK, power, mode="pair")
        det_full = detect_qostbc(y, g, BPSK, power, mode="full")
        assert np.array_equal(det_pair, det_full)
        assert np.any(det_full != tuples)  # noise actually caused errors

    def test_pair_equals_full_search_qpsk(self):
        rng = SeededStream(3, 4).generator()
        g = sampling.randn_complex(rng, 4)
        tuples = rng.integers(0, 4, (2000, 4))
        blocks = linksim._qostbc_encode_batch(QPSK.points[tuples])
        y = np.einsum("j,bjt->bt", g.conj(), blocks) + sampling.randn_complex(
            rng, 2000, 4
        )
        assert np.array_equal(
            detect_qostbc(y, g, QPSK, 1.0, mode="pair"),
            detect_qostbc(y, g, QPSK, 1.0, mode="full"),
        )


class TestMlDetect:
    def test_noiseless_recovery(self):
        rng = SeededStream(4, 0).generator()
        g = sampling.randn_complex(rng, 3)

        def eff(sym):  # (n_cand, 3) -> (n_cand, 1)
            return (sym @ g)[:, None]

        truth = np.array([2, 0, 3])
        y = eff(QPSK.points[truth][None, :])[0]
        det = ml_detect_exhaustive(y, eff, QPSK, 3)
        assert np.array_equal(det, truth)

    def test_single_symbol_reduces_to_nearest_neighbor(self):
        rng = SeededStream(4, 1).generator()
        y = sampling.randn_complex(rng, 200)

        def eff(sym):
            return sym

        det = ml_detect_exhaustive(y[:, None], eff, QAM16, 1)[:, 0]
        nearest = np.argmin(np.abs(y[:, None] - QAM16.points[None, :]) ** 2, axis=1)
        assert np.array_equal(det, nearest)

    def test_search_space_guard(self):
        def eff(sym):
            return sym

        with pytest.raises(ValueError, match="guard"):
            ml_detect_exhaustive(np.zeros(8, complex), eff, QAM16, 8)


class TestFrames:
    @pytest.mark.parametrize("scheme", linksim.SCHEMES)
    def test_transmit_power(self, scheme):
        con = BPSK if scheme == "precoded_sm" else QPSK
        cfg = SchemeConfig(scheme, RANK4_COV, con, 10.0, frame_length=15000
                           if scheme != "precoded_qostbc" else 15000)
        stream = SeededStream(5, linksim.SCHEMES.index(scheme))
        bits_rng = stream.generator()
        bits = bits_rng.integers(0, 2, frame_bit_count(cfg), dtype=np.uint8)
        x = transmit_frame(cfg, bits, SeededStream(5, 100))
        pw = float(np.mean(np.sum(np.abs(x) ** 2, axis=0)))
        assert abs(pw - 10.0) <= 0.02 * 10.0, scheme

    def test_beamforming_bpsk_signal(self):
        w = np.zeros((4, 4), dtype=complex)
        w[0, 0] = 1.0
        cfg = SchemeConfig("bf", CovarianceMatrix(w), BPSK, 4.0, frame_length=8)
        bits = np.array([0, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8)
        x = transmit_frame(cfg, bits, SeededStream(5, 200))
        expected_row0 = 2.0 * BPSK.points[bits_to_symbol_indices(bits, BPSK)]
        assert np.allclose(np.abs(x[0]), 2.0)
        assert np.allclose(x[1:], 0.0)
        assert np.allclose(x[0], expected_row0)

    def test_precoded_sm_identity_precoder(self):
        cfg = SchemeConfig(
            "precoded_sm", CovarianceMatrix(np.eye(4, dtype=complex) / 4), BPSK, 4.0,
            frame_length=6,
        )
        bits = np.zeros(24, dtype=np.uint8)
        x = transmit_frame(cfg, bits, SeededStream(5, 201))
        # B = I/2 up to a unitary; all-zero bits map to the first point
        assert np.allclose(np.sum(np.abs(x) ** 2, axis=0), 4.0, atol=1e-12)

    def test_bit_length_mismatch(self):
        cfg = SchemeConfig("bf", RANK4_COV, QPSK, 1.0, frame_length=10)
        with pytest.raises(ValueError, match="bits"):
            transmit_frame(cfg, np.zeros(7, dtype=np.uint8), SeededStream(5, 202))

    def test_frame_length_divisibility(self):
        with pytest.raises(ValueError):
            SchemeConfig("gauss_sbf_alamouti", RANK4_COV, QPSK, 1.0, frame_length=7)
        with pytest.raises(ValueError):
            SchemeConfig("precoded_qostbc", RANK4_COV, QPSK, 1.0, frame_length=10)


class TestBerSimulation:
    def test_single_user_qpsk_matches_analytic(self):
        # unit-norm channel on the covariance's only eigendirection: SNR = P
        ch = single_user_channel()
        w = np.zeros((4, 4), dtype=complex)
        w[0, 0] = 1.0
        for p_db in (0.0, 4.0, 8.0):
            power = 10 ** (p_db / 10)
            cfg = SchemeConfig("bf", CovarianceMatrix(w), QPSK, power, 1440)
            res = simulate_worst_user_ber(cfg, ch, 40, SeededStream(42, 1))
            analytic = qfunc(math.sqrt(power))
            se = math.sqrt(analytic * (1 - analytic) / res.bits_simulated)
            assert abs(res.worst_user_ber - analytic) <= 3 * se, p_db

    @pytest.mark.parametrize("scheme", ["bf", "gauss_sbf", "ellip_sbf_alamouti",
                                        "precoded_sm", "precoded_qostbc"])
    def test_zero_power_gives_coin_flip(self, scheme):
        ch = sample_channel_set(4, 3, SeededStream(6, 0))
        con = BPSK if scheme == "precoded_sm" else QPSK
        cfg = SchemeConfig(scheme, RANK4_COV, con, 1e-12, frame_length=1440)
        res = simulate_worst_user_ber(cfg, ch, 4, SeededStream(6, 1))
        se = math.sqrt(0.25 / res.bits_simulated)
        assert abs(res.worst_user_ber - 0.5) <= 4 * se, scheme

    def test_seed_determinism_across_workers(self, monkeypatch):
        ch = sample_channel_set(4, 5, SeededStream(6, 2))
        cfg = SchemeConfig("gauss_sbf_alamouti", RANK4_COV, QPSK, 6.0, 288)
        monkeypatch.setenv("SBF_THREADS", "1")
        res1 = simulate_worst_user_ber(cfg, ch, 8, SeededStream(6, 3))
        monkeypatch.setenv("SBF_THREADS", "8")
        res8 = simulate_worst_user_ber(cfg, ch, 8, SeededStream(6, 3))
        assert np.array_equal(res1.per_user_ber, res8.per_user_ber)
        assert res1.worst_user_ber == res8.worst_user_ber

    def test_result_invariants(self):
        ch = sample_channel_set(4, 4, SeededStream(6, 4))
        cfg = SchemeConfig("ellip_sbf", RANK4_COV, QPSK, 4.0, 288)
        res = simulate_worst_user_ber(cfg, ch, 3, SeededStream(6, 5))
        assert res.worst_user_ber == res.per_user_ber.max()
        assert np.all((res.per_user_ber >= 0) & (res.per_user_ber <= 1))
        assert res.bits_simulated == 3 * 288 * 2

    def test_qostbc_rank_check(self):
        w = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        cfg = SchemeConfig("precoded_qostbc", CovarianceMatrix(w), BPSK, 1.0, 8)
        ch = sample_channel_set(4, 2, SeededStream(6, 6))
        with pytest.raises(ValueError, match="rank"):
            simulate_worst_user_ber(cfg, ch, 1, SeededStream(6, 7))


class TestRateEstimation:
    def test_beamforming_exact_zero_variance(self):
        ch = sample_channel_set(4, 5, SeededStream(7, 0))
        cfg = SchemeConfig("bf", RANK4_COV, QPSK, 10.0)
        est, se = estimate_user_rates_mc(cfg, ch, 100, SeededStream(7, 1))
        lam, v = np.linalg.eigh(RANK4_COV.entries)
        expected = np.log1p(10.0 * np.abs(ch.channels.conj() @ v[:, -1]) ** 2)
        assert np.allclose(est, expected, atol=1e-12)
        assert np.all(se == 0.0)

    def test_bf_alamouti_exact_zero_variance(self):
        ch = sample_channel_set(4, 5, SeededStream(7, 5))
        cfg = SchemeConfig("bf_alamouti", RANK4_COV, QPSK, 10.0)
        est, se = estimate_user_rates_mc(cfg, ch, 100, SeededStream(7, 6))
        assert np.all(se == 0.0)
        # fixed pair: combined branch gain enters at half power
        ops = linksim._SchemeOps(cfg)
        g = ch.channels.conj() @ ops.fixed.T
        expected = np.log1p(5.0 * np.sum(np.abs(g) ** 2, axis=1))
        assert np.allclose(est, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "scheme,rate_fn",
        [
            ("gauss_sbf", rates.rate_sbf_gauss),
            ("ellip_sbf", rates.rate_sbf_ellip),
            ("gauss_sbf_alamouti", rates.rate_sbf_alam_gauss),
            ("ellip_sbf_alamouti", rates.rate_sbf_alam_ellip),
        ],
    )
    def test_stochastic_schemes_match_closed_forms(self, scheme, rate_fn):
        ch = sample_channel_set(4, 8, SeededStream(7, 3))  # rank-2 instance
        sol = capacity.solve_mc_covariance(ch)
        rank = sampling.psd_sqrt(sol.covariance.entries)[1]
        cfg = SchemeConfig(scheme, sol.covariance, QPSK, 10.0)
        est, se = estimate_user_rates_mc(
            cfg, ch, 10**5, SeededStream(7, linksim.SCHEMES.index(scheme))
        )
        rho, _ = capacity.rho_values(sol.covariance, ch)
        closed = np.array([rate_fn(rates.SchemeParams(r, 10.0, rank)) for r in rho])
        assert np.all(np.abs(est - closed) <= 3 * np.maximum(se, 1e-12)), scheme

    def test_unsupported_scheme(self):
        ch = sample_channel_set(4, 2, SeededStream(7, 9))
        cfg = SchemeConfig("precoded_qostbc", RANK4_COV, BPSK, 1.0, 8)
        with pytest.raises(ValueError):
            estimate_user_rates_mc(cfg, ch, 10, SeededStream(7, 10))


def test_ber_vs_rate_consistency_logged():
    """Soft cross-check, logged rather than asserted: schemes with a higher
    estimated multicast rate should tend to have no worse worst-user BER at
    the highest tested power."""
    power = 10 ** 1.4
    schemes = ("gauss_sbf", "ellip_sbf", "gauss_sbf_alamouti", "ellip_sbf_alamouti")
    agree = 0
    total = 0
    for j in range(6):
        ch = sample_channel_set(4, 12, SeededStream(88, j))
        sol = capacity.solve_mc_covariance(ch, tol=1e-4)
        rate = {}
        ber = {}
        for k, scheme in enumerate(schemes):
            cfg = SchemeConfig(scheme, sol.covariance, QPSK, power, 1440)
            est, _ = estimate_user_rates_mc(cfg, ch, 20000, SeededStream(88, 100 + 10 * j + k))
            rate[scheme] = est.min()
            res = simulate_worst_user_ber(cfg, ch, 2, SeededStream(88, 200 + 10 * j + k))
            ber[scheme] = res.worst_user_ber
        for a in schemes:
            for b in schemes:
                if rate[a] > rate[b]:
                    total += 1
                    agree += ber[a] <= ber[b]
    print(f"\nBER-vs-rate ordering consistency: {agree}/{total} "
          f"({100.0 * agree / max(total, 1):.0f}%)")


def test_scheme_ordering_at_high_power():
    """Elliptic SBF-Alamouti beats Gaussian SBF for most channel draws
    (worst-user BER at 14 dB, N=4, M=16, QPSK)."""
    power = 10 ** 1.4
    wins = 0
    n_real = 10
    for j in range(n_real):
        ch = sample_channel_set(4, 16, SeededStream(8, j))
        sol = capacity.solve_mc_covariance(ch, tol=1e-4)
        kwargs = dict(covariance=sol.covariance, constellation=QPSK, power=power,
                      frame_length=1440)
        ea = simulate_worst_user_ber(
            SchemeConfig(scheme="ellip_sbf_alamouti", **kwargs), ch, 2,
            SeededStream(9, 2 * j),
        )
        gs = simulate_worst_user_ber(
            SchemeConfig(scheme="gauss_sbf", **kwargs), ch, 2,
            SeededStream(9, 2 * j + 1),
        )
        wins += ea.worst_user_ber <= gs.worst_user_ber
    assert wins >= 0.8 * n_real

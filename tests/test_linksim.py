import dataclasses
import math

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import kstest, kstwobign

from sbfmc import capacity, linksim, rates, sampling, schemes
from sbfmc.capacity import CovarianceMatrix
from sbfmc.linksim import (
    Constellation,
    SchemeConfig,
    bits_to_symbol_indices,
    make_constellation,
    simulate_ber_sweep,
    simulate_worst_user_ber,
)
from sbfmc.sampling import ChannelSet, SeededStream

from helpers import (_nearest_candidate, alamouti_combine, alamouti_encode, count_bit_errors,
                     detect_qostbc, estimate_user_rates_mc, gain_cdf, gray_adjacency_ok,
                     qostbc_encode, sample_channel_set, solve_mc_covariance, transmit_frame,
                     transmit_row, weight_sampler)

SCHEMES = tuple(name for name, s in schemes.SCHEMES.items() if s.link is not None)
QPSK = make_constellation("qpsk")
BPSK = make_constellation("bpsk")
QAM16 = make_constellation("qam16")
# a QPSK whose levels differ in the last bits
POLAR = Constellation("polar", np.exp(1j * np.pi / 4 * np.arange(1, 8, 2)))

RANK4_COV = CovarianceMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
# rank 2: precoded_sm searches 16^2 16-QAM tuples and draws twice the bits
# of a weighted scheme
RANK2_COV = CovarianceMatrix(np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex))


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
            bps = con.bits_per_symbol
            unpacked = ((idx[:, None] >> np.arange(bps - 1, -1, -1)) & 1).ravel()
            assert np.array_equal(unpacked, bits)

    def test_count_bit_errors(self):
        idx_tx = np.array([0, 1, 2, 3])
        assert count_bit_errors(idx_tx, idx_tx) == 0
        flipped = np.array([3, 2, 1, 0])
        total = sum(int(a ^ b).bit_count() for a, b in zip(idx_tx, flipped))
        assert count_bit_errors(idx_tx, flipped) == total


def slicer_inputs(z, scale):
    """u_re, u_im and e = |scale|^2 of linksim._slice_cells, formed as the
    detectors form them: u = z conj(scale) for a complex scale, and the two
    real products z.real * s and z.imag * s for a real one."""
    if np.iscomplexobj(scale):
        u = z * np.conj(scale)
        return u.real, u.imag, np.abs(scale) ** 2
    return z.real * scale, z.imag * scale, np.abs(scale) ** 2


def slice_points(z, scale, con):
    """Point index of the cell linksim._slice_cells decides for each entry."""
    cells = linksim._slice_cells(*slicer_inputs(z, scale), 1.0, con, linksim._Buffers())
    return con.slicer.points[cells]


REAL_OR_COMPLEX = pytest.mark.parametrize("real_scale", [False, True], ids=["complex", "real"])


class TestSlicer:
    """The per-axis slicer behind the six beamformed schemes' detection.

    The point of the cell linksim._slice_cells returns must be
    argmin_k |z - c p_k|^2.  Tie rule: a value exactly on a midpoint
    between two levels takes the lower level; such ties have probability
    zero and the draws below hit none.
    """

    @pytest.mark.parametrize("con", [BPSK, QPSK, QAM16, POLAR])
    def test_matches_brute_force_metric(self, con):
        rng = SeededStream(9, 0).generator()
        n = 20000
        scale = 10 ** rng.uniform(-8, 3, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        scale[::2] = np.abs(scale[::2])  # real values in a complex array
        sent = con.points[rng.integers(0, con.size, n)]
        noise = rng.uniform(0, 1.5, n) * sampling.randn_complex(rng, n)
        # complex scales, then the real ones Alamouti combining gives
        for c in (scale, np.abs(scale)):
            z = c * (sent + noise)
            brute = np.argmin(np.abs(z[:, None] - c[:, None] * con.points) ** 2, axis=1)
            assert np.array_equal(slice_points(z, c, con), brute), c.dtype

    @pytest.mark.parametrize("con", [BPSK, QPSK, QAM16])
    def test_zero_scale_gives_point_zero(self, con):
        z = sampling.randn_complex(SeededStream(9, 1).generator(), 6)
        scale = np.array([0, 1, 0, 1j, 0, 2], dtype=complex)
        for c in (scale, np.abs(scale)):
            det = slice_points(z, c, con)
            assert np.all(det[scale == 0] == 0), c.dtype

    @pytest.mark.parametrize("con", [BPSK, QPSK, QAM16, POLAR])
    @REAL_OR_COMPLEX
    def test_all_users_match_row_by_row(self, con, real_scale):
        # the detectors slice all M users of a frame in one (M, T) call
        rng = SeededStream(9, 4).generator()
        m, t = 6, 500
        scale = 10 ** rng.uniform(-3, 2, (m, t)) * np.exp(2j * np.pi * rng.uniform(size=(m, t)))
        if real_scale:
            scale = np.abs(scale)  # Alamouti combining gives real gains
        scale[2] = 0  # a user whose every scale is 0
        scale[4, ::7] = 0
        sent = con.points[rng.integers(0, con.size, (m, t))]
        z = scale * sent + 0.5 * sampling.randn_complex(rng, m, t)
        det = slice_points(z, scale, con)
        assert det.shape == (m, t)
        assert np.all(det[2] == 0) and np.all(det[4, ::7] == 0)
        for i in range(m):
            row = slice_points(z[i], scale[i], con)
            assert np.array_equal(det[i], row), i

    @pytest.mark.parametrize("con", [BPSK, QPSK, QAM16, POLAR])
    @REAL_OR_COMPLEX
    @pytest.mark.parametrize("block", [1, 2])
    def test_counts_are_bit_errors_of_brute_force_decisions(self, con, real_scale, block):
        # the weighted detector slices (L, M, T / L) cells, slot k of block j
        # at [k, :, j], and returns their points laid out like the (T / L, L)
        # sent indices with a leading user axis; the frame's one counter
        # counts them against one payload that every user is sent
        rng = SeededStream(9, 5).generator()
        m, t = 5, 400
        scale = 10 ** rng.uniform(-2, 1, (m, t)) * np.exp(2j * np.pi * rng.uniform(size=(m, t)))
        if real_scale:
            scale = np.abs(scale)
        scale[1] = 0  # a user whose every scale is 0
        sent = rng.integers(0, con.size, t)
        z = scale * con.points[sent] + 0.7 * sampling.randn_complex(rng, m, t)
        brute = np.argmin(np.abs(z[..., None] - scale[..., None] * con.points) ** 2, axis=-1)
        want = [sum(int(d ^ s).bit_count() for d, s in zip(brute[i], sent)) for i in range(m)]
        assert want[1] > 0  # the zero-scale user decides point 0 throughout

        u_re, u_im, e = (a.reshape(m, -1, block).transpose(2, 0, 1)
                         for a in slicer_inputs(z, scale))
        buf = linksim._Buffers()
        cells = linksim._slice_cells(u_re, u_im, e, 1.0, con, buf)
        decided = con.slicer.points[cells].transpose(1, 2, 0)
        got = linksim._bit_errors(decided, sent.reshape(-1, block))
        assert got.dtype == np.int64 and got.tolist() == want

    @pytest.mark.parametrize("points", [
        np.exp(2j * np.pi * np.arange(8) / 8),  # 8-PSK: not n_re * n_im points
        np.array([1 + 1j, 1 + 1j, -1 - 1j, -1 + 1j]) / math.sqrt(2),  # two in one cell
    ])
    def test_non_grid_constellation_refused(self, points):
        con = Constellation("handmade", points)
        with pytest.raises(ValueError, match="handmade"):
            con.slicer
        ch = single_user_channel()
        cfg = SchemeConfig("bf", RANK4_COV, con, 1.0, 8)
        with pytest.raises(ValueError, match="handmade"):
            simulate_worst_user_ber(cfg, ch, 1, SeededStream(9, 2))
        # the precoded schemes search exhaustively and take any constellation
        cfg = SchemeConfig("precoded_sm", RANK4_COV, con, 1.0, 8)
        assert simulate_worst_user_ber(cfg, ch, 1, SeededStream(9, 3)).bits_simulated > 0

    def test_one_point_constellation_refused(self):
        # one point carries no bits: its frames would divide by zero bits
        # per symbol
        with pytest.raises(ValueError, match="two points"):
            Constellation("one", np.array([1 + 0j]))


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
        ws = weight_sampler("gauss_sbf_alamouti", w)
        rng = SeededStream(2, 2).generator()
        w1, w2 = ws.draw_weights(rng, 10**5)
        h = sampling.randn_complex(rng, 4)
        rho = float(np.real(h.conj() @ w @ h))
        xi = (np.abs(w1 @ h.conj()) ** 2 + np.abs(w2 @ h.conj()) ** 2) / (2 * rho)
        law = schemes.SCHEMES["gauss_sbf_alamouti"].rate.gain_law(1)
        stat = kstest(xi, lambda x: gain_cdf(law, x)).statistic
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
        blocks = schemes._qostbc_code(BPSK.points[tuples]).transpose(0, 2, 1)
        power = 10 ** (0.2)
        y = math.sqrt(power) * np.einsum("j,bjt->bt", g.conj(), blocks)
        y = y + sampling.randn_complex(rng, n_blocks, 4)
        det_full = qostbc_full_search(y, g, BPSK, power)
        assert np.array_equal(detect_qostbc(y, g, BPSK, power), det_full)
        assert np.any(det_full != tuples)  # noise actually caused errors

    def test_pair_equals_full_search_qpsk(self):
        rng = SeededStream(3, 4).generator()
        g = sampling.randn_complex(rng, 4)
        tuples = rng.integers(0, 4, (2000, 4))
        blocks = schemes._qostbc_code(QPSK.points[tuples]).transpose(0, 2, 1)
        y = np.einsum("j,bjt->bt", g.conj(), blocks) + sampling.randn_complex(
            rng, 2000, 4
        )
        assert np.array_equal(
            detect_qostbc(y, g, QPSK, 1.0), qostbc_full_search(y, g, QPSK, 1.0)
        )

    def test_pair_equals_full_search_qam16(self):
        # 16^4 = 65,536 candidate blocks: too many for a distance table, so
        # the reference search goes through _nearest_candidate, which
        # TestNearestCandidate pins to one.  g has unit norm, so the power
        # is the receive SNR; block errors fall from many at 10 dB to none
        # at 22 dB.
        rng = SeededStream(3, 5).generator()
        g = sampling.randn_complex(rng, 4)
        g /= np.linalg.norm(g)
        all_tuples = linksim._all_tuples(4, QAM16.size)
        wrong = 0
        for power_db in (10.0, 16.0, 22.0):
            power = 10 ** (power_db / 10)
            tuples = rng.integers(0, QAM16.size, (3000, 4))
            blocks = schemes._qostbc_code(QAM16.points[tuples]).transpose(0, 2, 1)
            y = math.sqrt(power) * np.einsum("j,bjt->bt", g.conj(), blocks)
            y = y + sampling.randn_complex(rng, 3000, 4)
            cand = math.sqrt(power) * qostbc_candidates(g, QAM16, pair=False)
            det_full = all_tuples[_nearest_candidate(y, cand)]
            assert np.array_equal(detect_qostbc(y, g, QAM16, power), det_full), power_db
            wrong += np.sum(np.any(det_full != tuples, axis=1))
        assert wrong > 0  # noise actually caused errors


class TestMlDetect:
    def test_noiseless_recovery(self):
        rng = SeededStream(4, 0).generator()
        # spatial multiplexing: one slot of three QPSK streams
        g = sampling.randn_complex(rng, 3)
        tuples = linksim._all_tuples(3, QPSK.size)
        cand = (QPSK.points[tuples] @ g)[:, None]
        truth = np.array([2, 0, 3])
        y = (QPSK.points[truth] @ g)[None, None]
        assert np.array_equal(tuples[_nearest_candidate(y, cand)][0], truth)
        # QOSTBC: noiseless 16-QAM blocks come back from the pair search
        g = sampling.randn_complex(rng, 4)
        sent = rng.integers(0, QAM16.size, (500, 4))
        blocks = schemes._qostbc_code(QAM16.points[sent]).transpose(0, 2, 1)
        y = 2.0 * np.einsum("j,bjt->bt", g.conj(), blocks)
        assert np.array_equal(detect_qostbc(y, g, QAM16, 4.0), sent)

    def test_single_symbol_reduces_to_nearest_neighbor(self):
        rng = SeededStream(4, 1).generator()
        y = sampling.randn_complex(rng, 200)
        tuples = linksim._all_tuples(1, QAM16.size)
        det = tuples[_nearest_candidate(y[:, None], QAM16.points[tuples])][:, 0]
        nearest = np.argmin(np.abs(y[:, None] - QAM16.points[None, :]) ** 2, axis=1)
        assert np.array_equal(det, nearest)

    def test_search_space_guard(self):
        with pytest.raises(ValueError, match="guard"):
            linksim._all_tuples(8, QAM16.size)


def count_tree_builds(monkeypatch):
    """Replace scipy.spatial.cKDTree with a subclass that counts its builds;
    returns the one-element list holding the count."""
    import scipy.spatial

    built = [0]

    class CountingTree(scipy.spatial.cKDTree):
        def __init__(self, *args, **kwargs):
            built[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    return built


def brute_force_nearest(y, cand):
    """argmin_k sum_j |y[b, j] - cand[k, j]|^2 over the full distance table."""
    return np.argmin((np.abs(y[:, None, :] - cand[None, :, :]) ** 2).sum(axis=2), axis=1)


def sm_candidates(g, power):
    """(16^d, 1) noiseless 16-QAM SM observations for the stream gains g."""
    tuples = linksim._all_tuples(len(g), QAM16.size)
    return math.sqrt(power) * (QAM16.points[tuples] @ g)[:, None]


def qostbc_candidates(g, constellation, pair):
    """(K, 4) noiseless QOSTBC blocks: all 4-tuples, or the {s1, s4} pairs."""
    tuples = linksim._all_tuples(2 if pair else 4, constellation.size)
    sym = constellation.points[tuples]
    if pair:
        zeros = np.zeros(len(tuples), dtype=complex)
        sym = np.stack([sym[:, 0], zeros, zeros, sym[:, 1]], axis=1)
    return np.einsum("j,bjt->bt", g.conj(), schemes._qostbc_code(sym).transpose(0, 2, 1))


def qostbc_full_search(y, g, constellation, power):
    """Exact ML reference: argmin over all |C|^4 noiseless QOSTBC blocks."""
    tuples = linksim._all_tuples(4, constellation.size)
    cand = math.sqrt(power) * qostbc_candidates(g, constellation, pair=False)
    return tuples[brute_force_nearest(y, cand)]


class TestNearestCandidate:
    @pytest.mark.parametrize("case, shape", [("sm_qam16_rank3", (4096, 1)),
                                             ("qostbc_qpsk_full", (256, 4)),
                                             ("qostbc_qam16_pair", (256, 4))])
    def test_matches_brute_force(self, case, shape):
        rng = SeededStream(21, 0).generator()
        if case == "sm_qam16_rank3":
            cand = sm_candidates(sampling.randn_complex(rng, 3), 100.0)
        else:
            cand = qostbc_candidates(sampling.randn_complex(rng, 4),
                                     QPSK if case == "qostbc_qpsk_full" else QAM16,
                                     pair=case == "qostbc_qam16_pair")
        assert cand.shape == shape
        sent = rng.integers(0, shape[0], 1000)
        y = cand[sent] + sampling.randn_complex(rng, 1000, shape[1])
        got = _nearest_candidate(y, cand)
        assert np.array_equal(got, brute_force_nearest(y, cand))
        assert 0 < np.mean(got != sent) < 1  # the noise makes some decisions wrong

    def test_repeated_rows_take_lowest_index(self):
        cand = np.array([[1.0], [0.0], [1.0], [0.0], [2.0]], dtype=complex)
        y = np.array([[0.9], [0.1j], [2.2], [1.1 - 0.1j]])
        assert _nearest_candidate(y, cand).tolist() == [0, 1, 4, 0]

    def test_zero_stream_gain_matches_brute_force(self):
        # a zero entry of B^H h makes 16 tuples share every candidate point
        rng = SeededStream(21, 1).generator()
        cand = sm_candidates(np.array([1.0 + 0.5j, 0.0, -0.3 + 1.0j]), 16.0)
        assert len(np.unique(cand)) == 256
        y = cand[rng.integers(0, len(cand), 2000)] + sampling.randn_complex(rng, 2000, 1)
        assert np.array_equal(_nearest_candidate(y, cand), brute_force_nearest(y, cand))

    def test_known_answer(self):
        cand = np.array([[0.0 + 0j], [1.0 + 0j], [0 + 1.0j]])
        y = np.array([[0.1 + 0j], [0.9 + 0.05j], [0.1 + 1.2j]])
        assert _nearest_candidate(y, cand).tolist() == [0, 1, 2]


class TestFrames:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_transmit_power(self, scheme):
        con = BPSK if scheme == "precoded_sm" else QPSK
        cfg = SchemeConfig(scheme, RANK4_COV, con, 10.0, frame_length=15000
                           if scheme != "precoded_qostbc" else 15000)
        stream = SeededStream(5, SCHEMES.index(scheme))
        bits_rng = stream.generator()
        bits = bits_rng.integers(0, 2, transmit_row(cfg).n_bits,
                                 dtype=np.uint8)
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

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scheme_entry_is_a_weight_law_or_a_code(self, scheme):
        # the row state picks the frame steps from `code is None`, so every
        # entry names exactly one of the two, and only a code has groups
        # and a rank; a weight law sends one symbol or one Alamouti pair
        link = schemes.SCHEMES[scheme].link
        assert (link.weights is None) != (link.code is None)
        if link.code is None:
            assert link.groups is None and link.rank is None
            assert link.block_length in (1, 2)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_noiseless_decisions_are_the_sent_indices(self, scheme):
        # every detector returns decided point indices laid out like the
        # sent info["symbols"], with a leading user axis; without noise
        # each user decides what was sent, and the frame's counter counts 0
        ch = sample_channel_set(4, 3, SeededStream(6, 19))
        cfg = SchemeConfig(scheme, RANK4_COV, QPSK, 100.0, 96)
        row = linksim._SchemeState(cfg, ch.channels)
        rng = SeededStream(6, 20).generator()
        buf = linksim._Buffers()
        x, info = row.encode(row, rng.integers(0, 2, row.n_bits, dtype=np.uint8), rng, buf)
        sp = math.sqrt(cfg.power)
        decided = row.detect(row, sp * (ch.channels.conj() @ x), info, sp, buf)
        sent = info["symbols"]
        assert decided.shape == (3, *sent.shape)
        assert np.array_equal(decided, np.broadcast_to(sent, decided.shape))
        assert linksim._bit_errors(decided, sent).tolist() == [0, 0, 0]


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

    def test_zero_power_in_a_sweep_gives_coin_flips(self):
        # P = 0 (power_db = -4000 in a config, say): every point is equally
        # far, the precoded searches decide tuple 0 instead of querying
        # y / 0, and every row runs next to its P > 0 rows
        ch = sample_channel_set(4, 3, SeededStream(6, 25))
        names = ("bf", "gauss_sbf_alamouti", "precoded_sm", "precoded_qostbc")
        cfgs = [SchemeConfig(s, RANK4_COV, QPSK, frame_length=720) for s in names]
        sims = simulate_ber_sweep(cfgs, [0.0, 100.0], ch, 4, SeededStream(6, 26))
        for name, (zero, loud) in zip(names, sims):
            se = math.sqrt(0.25 / zero.bits_simulated)
            assert abs(zero.worst_user_ber - 0.5) <= 4 * se, name
            assert loud.worst_user_ber < 0.3, name

    @pytest.mark.parametrize("scheme", ["gauss_sbf_alamouti", "precoded_sm", "precoded_qostbc"])
    def test_seed_determinism_across_workers(self, monkeypatch, scheme):
        # the precoded schemes' frame threads share each user's prebuilt search
        ch = sample_channel_set(4, 5, SeededStream(6, 2))
        cfg = SchemeConfig(scheme, RANK4_COV, QPSK, 6.0, 288)
        monkeypatch.setenv("SBF_THREADS", "1")
        res1 = simulate_worst_user_ber(cfg, ch, 8, SeededStream(6, 3))
        monkeypatch.setenv("SBF_THREADS", "8")
        res8 = simulate_worst_user_ber(cfg, ch, 8, SeededStream(6, 3))
        assert np.array_equal(res1.per_user_ber, res8.per_user_ber)
        assert res1.worst_user_ber == res8.worst_user_ber

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_counts_independent_of_worker_split(self, monkeypatch, scheme):
        # uneven splits: frame f runs on worker f mod W, so 5 frames on 2
        # and 3 workers, 8 on 3 and 5 on 8 (one frame each) all reuse
        # buffers differently, over the powers of one sweep and next to a
        # scheme that fills the same buffer roles
        ch = sample_channel_set(4, 5, SeededStream(6, 13))
        other = "bf_alamouti" if scheme == "gauss_sbf" else "gauss_sbf"
        cfgs = [SchemeConfig(s, RANK4_COV, QPSK, frame_length=96) for s in (scheme, other)]

        def per_user_ber(threads, n_frames):
            monkeypatch.setenv("SBF_THREADS", str(threads))
            sims = simulate_ber_sweep(cfgs, [1.0, 6.0, 40.0], ch, n_frames, SeededStream(6, 14))
            return np.array([[res.per_user_ber for res in by_power] for by_power in sims])

        for threads, n_frames in ((2, 5), (3, 5), (3, 8), (8, 5)):
            assert np.array_equal(per_user_ber(1, n_frames), per_user_ber(threads, n_frames)), (
                threads, n_frames)

    def test_sweep_rows_match_one_row_runs(self):
        # a (scheme, power) row of a sweep depends on neither its other
        # schemes nor its other powers: every scheme takes a prefix of the
        # frame's one bit draw (precoded_sm at rank 2 draws twice the bits
        # of the others) and its weights from its own lane
        ch = sample_channel_set(4, 4, SeededStream(6, 23))
        cfgs = [SchemeConfig(s, RANK2_COV, QPSK, frame_length=48)
                for s in ("precoded_sm", "gauss_sbf_alamouti", "bf", "ellip_sbf")]
        powers = [0.5, 4.0, 30.0]
        sims = simulate_ber_sweep(cfgs, powers, ch, 3, SeededStream(6, 24))
        for cfg, by_power in zip(cfgs, sims):
            for power, res in zip(powers, by_power):
                one = simulate_worst_user_ber(dataclasses.replace(cfg, power=power), ch, 3,
                                              SeededStream(6, 24))
                assert one.bits_simulated == res.bits_simulated, (cfg.scheme, power)
                assert np.array_equal(one.per_user_ber, res.per_user_ber), (cfg.scheme, power)

    @pytest.mark.parametrize("con", [BPSK, QPSK, QAM16], ids=lambda con: con.name)
    def test_decisions_monotone_in_power(self, con):
        # with shared draws, a decision that is right at one power is right
        # at every higher power: the sent point's decision region is convex
        # and contains it (an interval per axis for the weighted schemes,
        # the nearest-candidate cell of a whole block for precoded_sm), and
        # the noise's share shrinks as 1 / sqrt(P).  precoded_qostbc's pair
        # searches are no plain nearest-point decision, so the property is
        # not claimed for it
        ch = sample_channel_set(4, 5, SeededStream(6, 21))
        names = [s for s in SCHEMES if s != "precoded_qostbc"]
        cfgs = [SchemeConfig(s, RANK2_COV, con, frame_length=96) for s in names]
        powers = list(10 ** (np.arange(-6, 24, 2) / 10))  # 15 powers, -6 to 22 dB
        sweep = linksim._Sweep(cfgs, powers, ch.channels, SeededStream(6, 22))
        right = [[[] for _ in powers] for _ in names]  # by scheme, then power
        buf = linksim._Buffers()
        for frame in range(2):
            for i, j, decided, sent in sweep.decisions(frame, buf):
                ok = decided == sent
                right[i][j].extend((ok.all(axis=-1) if names[i] == "precoded_sm" else ok).ravel())
        for name, by_power in zip(names, right):
            r = np.array(by_power)
            assert np.all(r[:-1] <= r[1:]), name  # right at P_j, so right at P_j+1
            assert r[-1].sum() > r[0].sum(), name
        if con is QAM16:
            return  # Gray labels along an axis are not monotone in distance
        # so on BPSK and QPSK every user's bit errors fall along the powers
        sims = simulate_ber_sweep(cfgs, powers, ch, 2, SeededStream(6, 22))
        for name, by_power in zip(names, sims):
            errors = np.array([np.rint(res.per_user_ber * res.bits_simulated)
                               for res in by_power])
            assert np.all(np.diff(errors, axis=0) <= 0), name

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_covariance_root_per_row(self, monkeypatch, scheme):
        # the weight sampler shares the row's root of W
        roots = []
        psd_sqrt = sampling.psd_sqrt

        def counting_sqrt(w):
            roots.append(w)
            return psd_sqrt(w)

        monkeypatch.setattr(sampling, "psd_sqrt", counting_sqrt)
        monkeypatch.setattr(linksim, "psd_sqrt", counting_sqrt)
        ch = sample_channel_set(4, 3, SeededStream(6, 17))
        cfg = SchemeConfig(scheme, RANK4_COV, QPSK, 6.0, 8)
        simulate_worst_user_ber(cfg, ch, 2, SeededStream(6, 18))
        assert len(roots) == 1

    @pytest.mark.parametrize("scheme, trees_per_user", [("precoded_sm", 1),
                                                        ("precoded_qostbc", 2)])
    @pytest.mark.parametrize("n_frames", [1, 4])
    def test_searches_built_once_per_row(self, monkeypatch, scheme, trees_per_user, n_frames):
        built = count_tree_builds(monkeypatch)
        monkeypatch.setenv("SBF_THREADS", "2")
        ch = sample_channel_set(4, 5, SeededStream(6, 8))
        cfg = SchemeConfig(scheme, RANK4_COV, QPSK, 6.0, 288)
        simulate_worst_user_ber(cfg, ch, n_frames, SeededStream(6, 9))
        assert built == [trees_per_user * 5]

    @pytest.mark.parametrize("n_users", [2, 5])
    def test_qostbc_pair_blocks_encoded_once_per_row(self, monkeypatch, n_users):
        # QPSK pairs give 16 candidate blocks per group; a 288-slot frame
        # encodes 72 blocks, so only the search builder's calls have 16 rows
        encoded = []
        link = schemes.SCHEMES["precoded_qostbc"].link

        def counting_encode(s):
            encoded.append(len(s))
            return link.code(s)

        counting = dataclasses.replace(link, code=counting_encode)
        monkeypatch.setitem(schemes.SCHEMES, "precoded_qostbc",
                            dataclasses.replace(schemes.SCHEMES["precoded_qostbc"], link=counting))
        ch = sample_channel_set(4, n_users, SeededStream(6, 15))
        cfg = SchemeConfig("precoded_qostbc", RANK4_COV, QPSK, 6.0, 288)
        simulate_worst_user_ber(cfg, ch, 3, SeededStream(6, 16))
        assert sorted(encoded) == [16, 16, 72, 72, 72]

    @pytest.mark.parametrize("scheme, n_users", [("precoded_sm", 65),
                                                 ("precoded_qostbc", 8193)])
    def test_search_row_guard_refuses_before_building(self, monkeypatch, scheme, n_users):
        # 65 * 16^4 and 2 * 8193 * 16^2 candidate rows are just over 2^22
        built = count_tree_builds(monkeypatch)
        ch = sample_channel_set(4, n_users, SeededStream(6, 10))
        cfg = SchemeConfig(scheme, RANK4_COV, QAM16, 6.0, 4)
        with pytest.raises(ValueError, match="guard"):
            simulate_worst_user_ber(cfg, ch, 1, SeededStream(6, 11))
        assert built == [0]

    def test_search_row_guard_boundary(self):
        linksim._check_search_rows(64 * QAM16.size**4)  # 2^22 rows: accepted
        with pytest.raises(ValueError, match="guard"):
            linksim._check_search_rows(64 * QAM16.size**4 + 1)

    @pytest.mark.parametrize("scheme", ["precoded_sm", "precoded_qostbc"])
    def test_non_finite_observation_raises_through_prebuilt_search(self, scheme):
        ch = sample_channel_set(4, 2, SeededStream(6, 12))
        cfg = SchemeConfig(scheme, RANK4_COV, QPSK, 6.0, 8)
        row = linksim._SchemeState(cfg, ch.channels)
        y = np.zeros((2, 8), dtype=complex)
        y[1, 3] = np.inf
        with pytest.raises(ValueError):
            row.detect(row, y, None, 1.0, linksim._Buffers())

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
        row = linksim._SchemeState(cfg, ch.channels)
        g = ch.channels.conj() @ row.fixed.T
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
        sol = solve_mc_covariance(ch)
        rank = sampling.psd_sqrt(sol.covariance.entries)[1]
        cfg = SchemeConfig(scheme, sol.covariance, QPSK, 10.0)
        est, se = estimate_user_rates_mc(
            cfg, ch, 10**5, SeededStream(7, SCHEMES.index(scheme))
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
        sol = solve_mc_covariance(ch, tol=1e-4)
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
        sol = solve_mc_covariance(ch, tol=1e-4)
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

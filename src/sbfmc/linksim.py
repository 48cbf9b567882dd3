"""Symbol-level multicast link simulator: uncoded per-user and worst-user
BER for the beamforming, stochastic-beamforming, Alamouti-coded and
precoded transmission schemes, with exhaustive ML detection where needed.

Conventions: noise is CN(0, 1) per received symbol, so the power P carries
the SNR; weights are redrawn per symbol (SBF) or per 2-symbol block
(SBF-Alamouti); precoded schemes use a fixed square-root factor B of the
transmit covariance.  All users receive the same payload bits (multicast)
through independent noise.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .capacity import CovarianceMatrix
from .sampling import SeededStream, WeightSampler, psd_sqrt, randn_complex

_ML_SEARCH_GUARD = 10**6


def n_workers():
    """Worker cap from the SBF_THREADS environment variable (default 1)."""
    try:
        return max(1, int(os.environ.get("SBF_THREADS", "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# constellations


@dataclass(frozen=True)
class Constellation:
    """Unit-energy complex constellation with Gray bit labels; point i
    carries the bit pattern labels[i]."""

    name: str
    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if abs(np.mean(np.abs(self.points) ** 2) - 1.0) > 1e-12:
            raise ValueError(f"{self.name}: average energy != 1")
        if sorted(self.labels.tolist()) != list(range(len(self.points))):
            raise ValueError(f"{self.name}: labels must be a permutation of 0..K-1")

    @property
    def size(self):
        return len(self.points)

    @property
    def bits_per_symbol(self):
        return int(round(math.log2(self.size)))

    def index_of_label(self):
        inv = np.empty(self.size, dtype=np.int64)
        inv[self.labels] = np.arange(self.size)
        return inv


_GRAY2 = {0b00: -3.0, 0b01: -1.0, 0b11: 1.0, 0b10: 3.0}


def make_constellation(name):
    """BPSK, Gray QPSK or Gray 16-QAM, unit average energy."""
    name = name.lower()
    if name == "bpsk":
        points = np.array([1.0 + 0j, -1.0 + 0j])
        labels = np.array([0, 1])
    elif name == "qpsk":
        pts, labs = [], []
        for lab in range(4):
            bi, bq = (lab >> 1) & 1, lab & 1
            pts.append(((1 - 2 * bi) + 1j * (1 - 2 * bq)) / np.sqrt(2.0))
            labs.append(lab)
        points, labels = np.array(pts), np.array(labs)
    elif name in ("qam16", "16qam"):
        pts, labs = [], []
        for lab in range(16):
            bi, bq = (lab >> 2) & 3, lab & 3
            pts.append((_GRAY2[bi] + 1j * _GRAY2[bq]) / np.sqrt(10.0))
            labs.append(lab)
        points, labels = np.array(pts), np.array(labs)
    else:
        raise ValueError(f"unknown constellation {name!r}")
    return Constellation(name, points, labels)


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


def bits_to_symbol_indices(bits, constellation):
    """Pack a 0/1 array into constellation point indices (Gray labels)."""
    bps = constellation.bits_per_symbol
    if bits.size % bps:
        raise ValueError(f"bit count {bits.size} not divisible by {bps}")
    weights = 1 << np.arange(bps - 1, -1, -1)
    labels = bits.reshape(-1, bps).astype(np.int64) @ weights
    return constellation.index_of_label()[labels]


def count_bit_errors(idx_tx, idx_rx, constellation):
    """Total differing bits between transmitted and detected point indices."""
    labs = constellation.labels
    return int(np.bitwise_count(np.bitwise_xor(labs[idx_tx], labs[idx_rx])).sum())


# ---------------------------------------------------------------------------
# space-time codes


def alamouti_encode(s1, s2):
    """2x2 orthogonal code block, rows = time slots, columns = branches."""
    return np.array([[s1, s2], [-np.conj(s2), np.conj(s1)]])


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


def qostbc_encode(s):
    """The 4x4 quasi-orthogonal block for symbols s = (s1, s2, s3, s4)."""
    s = np.asarray(s, dtype=np.complex128)
    if s.shape != (4,):
        raise ValueError("qostbc_encode needs exactly 4 symbols")
    return _qostbc_encode_batch(s[None, :])[0]


def _qostbc_encode_batch(s):
    """(B, 4) symbols -> (B, 4, 4) code blocks."""
    s1, s2, s3, s4 = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    c = np.empty((s.shape[0], 4, 4), dtype=np.complex128)
    c[:, 0, 0], c[:, 0, 1], c[:, 0, 2], c[:, 0, 3] = s1, s2, s3, s4
    c[:, 1, 0], c[:, 1, 1] = -np.conj(s2), np.conj(s1)
    c[:, 1, 2], c[:, 1, 3] = -np.conj(s4), np.conj(s3)
    c[:, 2, 0], c[:, 2, 1] = -np.conj(s3), -np.conj(s4)
    c[:, 2, 2], c[:, 2, 3] = np.conj(s1), np.conj(s2)
    c[:, 3, 0], c[:, 3, 1], c[:, 3, 2], c[:, 3, 3] = s4, -s3, -s2, s1
    return c


# ---------------------------------------------------------------------------
# scheme configuration and per-scheme precomputation


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str
    covariance: CovarianceMatrix
    constellation: Constellation
    power: float
    frame_length: int = 1440

    def __post_init__(self):
        link = LINK_SCHEMES.get(self.scheme)
        if link is None:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.power < 0:
            raise ValueError("power must be >= 0")
        blk = link.block_length
        if self.frame_length < 1 or self.frame_length % blk:
            raise ValueError(
                f"frame length {self.frame_length} not divisible by block length {blk}"
            )


@dataclass(frozen=True)
class SimResult:
    per_user_ber: np.ndarray
    worst_user_ber: float
    bits_simulated: int
    seed: SeededStream
    worst_user_stderr: float
    diagnostics: dict = field(default_factory=dict)


class _SchemeOps:
    """Factors of the covariance needed by each scheme, computed once."""

    def __init__(self, cfg):
        self.link = link = LINK_SCHEMES[cfg.scheme]
        w = cfg.covariance.entries
        self.root, self.rank = psd_sqrt(w)
        self.n_antennas = w.shape[0]
        lam, v = np.linalg.eigh(w)
        # Alamouti branch pair: top-2 eigenvectors, power split by
        # eigenvalue, scaled so the two branch norms sum to 2
        lam2 = np.clip(lam[-2:][::-1], 0.0, None)
        tot = lam2.sum()
        b1 = v[:, -1] * math.sqrt(2.0 * lam2[0] / tot)
        b2 = v[:, -2] * math.sqrt(2.0 * lam2[1] / tot)
        # fixed weights, one row per branch, or else the sampler of a random law
        self.fixed = {"principal": v[:, -1:].T, "bf_pair": np.stack([b1, b2])}.get(link.weights)
        self.sampler = None
        if self.fixed is None and link.weights is not None:
            self.sampler = WeightSampler.from_covariance(link.weights, w)
        if link.rank is not None and self.rank != link.rank:
            raise ValueError(
                f"{cfg.scheme} needs a rank-{link.rank} covariance, got rank {self.rank}"
            )


def _draw_weights(ops, rng, count):
    """Per-branch (count, N) weights of the scheme's weight law."""
    if ops.fixed is not None:
        return tuple(np.repeat(b[None, :], count, axis=0) for b in ops.fixed)
    if ops.link.block_length == 1:
        return (ops.sampler.sample(rng, count),)
    return ops.sampler.sample_pair(rng, count)


def _nearest_point(values, scale, constellation):
    """Nearest constellation point of values/scale, scale-robust: uses the
    direct metric |values - scale * point|^2."""
    diff = values[:, None] - scale[:, None] * constellation.points[None, :]
    return np.argmin(np.abs(diff) ** 2, axis=1)


def _all_tuples(n_symbols, size):
    """(size^n, n) mixed-radix enumeration of symbol-index tuples."""
    n_cand = size**n_symbols
    if n_cand > _ML_SEARCH_GUARD:
        raise ValueError(
            f"search space {size}^{n_symbols} exceeds the {_ML_SEARCH_GUARD} guard"
        )
    idx = np.arange(n_cand)
    cols = []
    for j in range(n_symbols - 1, -1, -1):
        cols.append((idx // size**j) % size)
    return np.stack(cols, axis=1)


def ml_detect_exhaustive(y, eff_channel, constellation, n_symbols):
    """Exact ML detection by exhaustive search.

    Parameters
    ----------
    y : (L,) or (B, L) received vector(s).
    eff_channel : callable mapping (n_cand, n_symbols) symbol values to
        (n_cand, L) noiseless received vectors (linear or conjugate-linear).
    constellation, n_symbols : symbol alphabet and tuple length; the search
        space |constellation|^n_symbols is capped at 1e6.

    Returns the detected symbol-index tuples, shape (n_symbols,) or
    (B, n_symbols).
    """
    tuples = _all_tuples(n_symbols, constellation.size)
    cand = np.asarray(eff_channel(constellation.points[tuples]))
    y = np.asarray(y, dtype=np.complex128)
    single = y.ndim == 1
    yb = y[None, :] if single else y
    best = backend.min_dist_detect(yb, cand)
    out = tuples[best]
    return out[0] if single else out


def detect_qostbc(y_blocks, g, constellation, power, mode="auto"):
    """ML detection of quasi-orthogonal blocks.

    y_blocks : (B, 4) received slots per block for one user.
    g : (4,) effective stream channel B^H h.
    mode : "full" enumerates all |C|^4 tuples; "pair" exploits the exact
        decoupling of the code's metric into the symbol pairs {s1, s4} and
        {s2, s3}; "auto" uses full search only for tiny alphabets.

    Returns (B, 4) detected symbol indices.
    """
    size = constellation.size
    if mode == "auto":
        mode = "full" if size**4 <= 4096 else "pair"
    gc = g.conj()
    sp = math.sqrt(power)
    if mode == "full":
        tuples = _all_tuples(4, size)
        blocks = _qostbc_encode_batch(constellation.points[tuples])
        cand = sp * np.einsum("j,bjt->bt", gc, blocks)
        best = backend.min_dist_detect(y_blocks, cand)
        return tuples[best]
    if mode != "pair":
        raise ValueError(f"bad detection mode {mode!r}")
    pair_tuples = _all_tuples(2, size)
    pts = constellation.points[pair_tuples]
    zeros = np.zeros(len(pair_tuples), dtype=np.complex128)
    s14 = np.stack([pts[:, 0], zeros, zeros, pts[:, 1]], axis=1)
    s23 = np.stack([zeros, pts[:, 0], pts[:, 1], zeros], axis=1)
    cand14 = sp * np.einsum("j,bjt->bt", gc, _qostbc_encode_batch(s14))
    cand23 = sp * np.einsum("j,bjt->bt", gc, _qostbc_encode_batch(s23))
    best14 = pair_tuples[backend.min_dist_detect(y_blocks, cand14)]
    best23 = pair_tuples[backend.min_dist_detect(y_blocks, cand23)]
    out = np.empty((y_blocks.shape[0], 4), dtype=np.int64)
    out[:, 0], out[:, 3] = best14[:, 0], best14[:, 1]
    out[:, 1], out[:, 2] = best23[:, 0], best23[:, 1]
    return out


# ---------------------------------------------------------------------------
# frame pipeline


def frame_bit_count(cfg, ops=None):
    """Payload bits per frame for a scheme configuration."""
    bits = cfg.frame_length * cfg.constellation.bits_per_symbol
    if LINK_SCHEMES[cfg.scheme].multiplexed:
        bits *= (_SchemeOps(cfg) if ops is None else ops).rank
    return bits


def _encode_weighted(cfg, ops, bits, rng):
    """One symbol per slot on drawn weights, Alamouti-coded over two
    branches when the block is two slots long."""
    con = cfg.constellation
    idx = bits_to_symbol_indices(bits, con)
    s = con.points[idx].reshape(-1, ops.link.block_length)
    w = _draw_weights(ops, rng, s.shape[0])
    amp = math.sqrt(cfg.power / len(w))
    if len(w) == 1:
        x = amp * (w[0] * s).T
    else:
        x = np.empty((ops.n_antennas, cfg.frame_length), dtype=np.complex128)
        x[:, 0::2] = amp * (w[0] * s[:, 0:1] + w[1] * s[:, 1:2]).T
        x[:, 1::2] = amp * (-w[0] * np.conj(s[:, 1:2]) + w[1] * np.conj(s[:, 0:1])).T
    return x, {"weights": w, "symbols": idx}


def _detect_weighted(cfg, ops, h, y, info):
    """Scalar nearest point of each user's decision statistic z after
    identity (one branch) or Alamouti (two branches) combining."""
    gains = [w @ h.conj().T for w in info["weights"]]  # per branch (blocks, M)
    amp = math.sqrt(cfg.power / len(gains))
    for i in range(h.shape[0]):
        if len(gains) == 1:
            z, scale = y[i], amp * gains[0][:, i]
        else:
            g = np.stack([gb[:, i] for gb in gains], axis=-1)  # (blocks, 2)
            z = alamouti_combine(y[i].reshape(-1, 2), g).ravel()
            scale = np.repeat(amp * (np.abs(g[:, 0]) ** 2 + np.abs(g[:, 1]) ** 2), 2)
        yield _nearest_point(z, scale, cfg.constellation)


def _encode_multiplexed(cfg, ops, bits, rng):
    """One symbol per stream of the covariance root B in every slot."""
    con = cfg.constellation
    idx = bits_to_symbol_indices(bits, con).reshape(cfg.frame_length, ops.rank)
    x = math.sqrt(cfg.power) * (ops.root @ con.points[idx].T)
    return x, {"symbols": idx}


def _detect_tuples(cfg, ops, h, y, info):
    """Exhaustive ML search over the symbol tuples of each slot."""
    con = cfg.constellation
    g = h.conj() @ ops.root  # (M, d), row i = (B^H h_i)^*
    tuples = _all_tuples(ops.rank, con.size)
    sym = con.points[tuples]  # (K^d, d)
    sp = math.sqrt(cfg.power)
    for i in range(h.shape[0]):
        cand = sp * (sym @ g[i])[:, None]
        yield tuples[backend.min_dist_detect(y[i][:, None], cand)]


def _encode_qostbc(cfg, ops, bits, rng):
    """Quasi-orthogonal 4x4 blocks on the four streams of B."""
    con = cfg.constellation
    idx = bits_to_symbol_indices(bits, con).reshape(-1, 4)
    blocks = _qostbc_encode_batch(con.points[idx])  # (B, 4, 4)
    x = math.sqrt(cfg.power) * np.einsum("nj,bjt->nbt", ops.root, blocks)
    return x.reshape(ops.n_antennas, cfg.frame_length), {"symbols": idx}


def _detect_qostbc_blocks(cfg, ops, h, y, info):
    """detect_qostbc on each user's 4-slot blocks."""
    g = ops.root.conj().T @ h.T  # (4, M), column i = B^H h_i
    for i in range(h.shape[0]):
        yield detect_qostbc(y[i].reshape(-1, 4), g[:, i], cfg.constellation, cfg.power)


@dataclass(frozen=True)
class LinkScheme:
    """How one scheme sends and detects: one entry of LINK_SCHEMES.

    block_length: slots per code block; frame lengths are multiples of it.
    weights: the weight law.  "principal" (top eigenvector of W) and
        "bf_pair" (the eigenvalue-split top-2 pair) are fixed; a
        WeightSampler kind is redrawn per block; None precodes with the
        covariance root B.
    encode: (cfg, ops, bits, rng) -> the (N, T) transmit signal and the
        receiver-side info.  It draws only weights from rng (the caller
        draws payload bits before and noise after), so results reproduce.
    detect: (cfg, ops, h, y, info) -> each user's detected symbol indices
        from the (M, T) received signal y, one user at a time.
    multiplexed: sends one symbol per stream of B in every slot.
    rank: covariance rank the code needs, or None for any.
    """

    block_length: int
    weights: object
    encode: object
    detect: object
    multiplexed: bool = False
    rank: object = None


LINK_SCHEMES = {
    "bf": LinkScheme(1, "principal", _encode_weighted, _detect_weighted),
    "gauss_sbf": LinkScheme(1, "gauss_sbf", _encode_weighted, _detect_weighted),
    "ellip_sbf": LinkScheme(1, "ellip_sbf", _encode_weighted, _detect_weighted),
    "bf_alamouti": LinkScheme(2, "bf_pair", _encode_weighted, _detect_weighted),
    "gauss_sbf_alamouti": LinkScheme(2, "gauss_sbf", _encode_weighted, _detect_weighted),
    "ellip_sbf_alamouti": LinkScheme(2, "ellip_sbf", _encode_weighted, _detect_weighted),
    "precoded_sm": LinkScheme(1, None, _encode_multiplexed, _detect_tuples, multiplexed=True),
    "precoded_qostbc": LinkScheme(4, None, _encode_qostbc, _detect_qostbc_blocks, rank=4),
}

SCHEMES = tuple(LINK_SCHEMES)


def transmit_frame(cfg, bits, stream):
    """Encode one frame of payload bits into the (N, T) transmit signal."""
    ops = _SchemeOps(cfg)
    bits = np.asarray(bits)
    expected = frame_bit_count(cfg, ops)
    if bits.size != expected:
        raise ValueError(f"expected {expected} bits, got {bits.size}")
    rng = stream.generator() if isinstance(stream, SeededStream) else stream
    return ops.link.encode(cfg, ops, bits, rng)[0]


def _simulate_one_frame(cfg, ops, ch, rng):
    """(M,) bit error counts of one frame."""
    bits = rng.integers(0, 2, frame_bit_count(cfg, ops), dtype=np.uint8)
    x, info = ops.link.encode(cfg, ops, bits, rng)
    h = ch.channels
    # noise first: the other order measured ~0.6 ms slower per M = 16, T = 1440 frame
    noise = randn_complex(rng, h.shape[0], cfg.frame_length)
    y = h.conj() @ x + noise  # (M, T)
    detected = ops.link.detect(cfg, ops, h, y, info)
    return np.array([count_bit_errors(info["symbols"], d, cfg.constellation) for d in detected],
                    dtype=np.int64)


def simulate_worst_user_ber(cfg, ch, n_frames, stream):
    """Uncoded per-user and worst-user BER over seeded multicast frames.

    Frames are independent work units keyed by (stream, frame index) and
    merged by integer error-count summation, so the result is identical
    for any SBF_THREADS worker count.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    ops = _SchemeOps(cfg)
    if ch.n_antennas != ops.n_antennas:
        raise ValueError("channel/covariance dimension mismatch")
    n_bits = frame_bit_count(cfg, ops)

    def run(frame_idx):
        return _simulate_one_frame(cfg, ops, ch, stream.substream(frame_idx))

    workers = min(n_workers(), n_frames)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_frame = list(pool.map(run, range(n_frames)))
    else:
        per_frame = [run(i) for i in range(n_frames)]
    errors = np.sum(per_frame, axis=0)
    total_bits = n_bits * n_frames
    ber = errors / total_bits
    worst = float(ber.max())
    stderr = math.sqrt(max(worst * (1.0 - worst), 0.0) / total_bits)
    diagnostics = {}
    if ops.link.weights is None:
        g = ch.channels.conj() @ ops.root  # (M, d)
        p_stream = np.abs(g) ** 2
        diagnostics["interference_fraction"] = (
            1.0 - p_stream.max(axis=1) / p_stream.sum(axis=1)
        )
    return SimResult(ber, worst, total_bits, stream, stderr, diagnostics)


# ---------------------------------------------------------------------------
# Monte Carlo rate estimation


def _mean_branch_gain(weights, h):
    """(count, M) gains |h^H w|^2 averaged over the branches."""
    return sum(np.abs(w @ h.conj().T) ** 2 for w in weights) / len(weights)


def estimate_user_rates_mc(cfg, ch, n_samples, stream, chunk=1 << 16):
    """Per-user empirical ergodic rates E[log(1 + P |h^H w|^2)] (or the
    Alamouti-gain analog) with standard errors; the minimum over users
    estimates the multicast rate.

    Deterministic schemes (bf, bf_alamouti) return the exact rate with
    zero standard error.
    """
    if LINK_SCHEMES[cfg.scheme].weights is None:
        raise ValueError(f"no rate estimator for scheme {cfg.scheme!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    ops = _SchemeOps(cfg)
    h = ch.channels
    p = cfg.power
    if ops.fixed is not None:
        rate = np.log1p(p * _mean_branch_gain(_draw_weights(ops, None, 1), h)[0])
        return rate, np.zeros_like(rate)
    rng = stream.generator() if isinstance(stream, SeededStream) else stream
    m = h.shape[0]
    acc = np.zeros(m)
    acc2 = np.zeros(m)
    done = 0
    while done < n_samples:
        n = min(chunk, n_samples - done)
        vals = np.log1p(p * _mean_branch_gain(_draw_weights(ops, rng, n), h))
        acc += vals.sum(axis=0)
        acc2 += (vals**2).sum(axis=0)
        done += n
    mean = acc / n_samples
    var = np.maximum(acc2 / n_samples - mean**2, 0.0)
    return mean, np.sqrt(var / n_samples)

"""Symbol-level multicast link simulator: uncoded per-user and worst-user
BER for the beamforming, stochastic-beamforming, Alamouti-coded and
precoded transmission schemes, with exhaustive ML detection where needed.

Conventions: noise is CN(0, 1) per received symbol, so the power P carries
the SNR; weights are redrawn per symbol (SBF) or per 2-symbol block
(SBF-Alamouti); precoded schemes use a fixed square-root factor B of the
transmit covariance.  All users receive the same payload bits (multicast)
through independent noise.
"""

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .capacity import CovarianceMatrix
from .sampling import WeightSampler, fill_randn_complex, psd_sqrt

_ML_SEARCH_GUARD = 10**6
# candidate rows that one BER row's ML searches may hold at once, over all
# users: 2^22 one-slot precoded_sm rows take about 170 MB (42 B a row),
# 2^22 four-slot QOSTBC rows about 380 MB (96 B a row)
_ML_ROW_GUARD = 1 << 22


def n_workers():
    """Worker cap from the SBF_THREADS environment variable (default 1)."""
    raw = os.environ.get("SBF_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"SBF_THREADS must be an integer, got {raw!r}") from None


def map_in_order(fn, n):
    """[fn(0), ..., fn(n - 1)], on up to n_workers() threads when n > 1."""
    workers = min(n_workers(), n)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(n)))
    return [fn(i) for i in range(n)]


# ---------------------------------------------------------------------------
# constellations


@dataclass(frozen=True)
class Constellation:
    """Unit-energy complex constellation with Gray bit labels: point i
    carries the bit pattern of its index i, most significant bit first."""

    name: str
    points: np.ndarray

    def __post_init__(self):
        if abs(np.mean(np.abs(self.points) ** 2) - 1.0) > 1e-12:
            raise ValueError(f"{self.name}: average energy != 1")

    @property
    def size(self):
        return len(self.points)

    @property
    def bits_per_symbol(self):
        return int(round(math.log2(self.size)))

    @functools.cached_property
    def slicer(self):
        """Per-axis decision data of a product-grid constellation: the
        midpoints between the sorted real levels, the same for the imaginary
        levels, and the (n_re, n_im) table from a level pair to its point
        index.  Raises ValueError when the points do not fill such a grid
        one-to-one (an 8-PSK, say)."""
        re_mids = _level_midpoints(self.points.real)
        im_mids = _level_midpoints(self.points.imag)
        table = np.full((len(re_mids) + 1, len(im_mids) + 1), -1, dtype=np.int64)
        table[np.searchsorted(re_mids, self.points.real),
              np.searchsorted(im_mids, self.points.imag)] = np.arange(self.size)
        if table.size != self.size or (table < 0).any():
            raise ValueError(f"{self.name}: points do not form a product grid of per-axis levels")
        return re_mids, im_mids, table


def _level_midpoints(x):
    """Midpoints between the sorted distinct values of x; values less than
    1e-9 apart (rounding, in a unit-energy constellation) are one level."""
    v = np.unique(x)
    levels = v[np.diff(v, prepend=-np.inf) > 1e-9]
    return (levels[1:] + levels[:-1]) / 2


_GRAY2 = {0b00: -3.0, 0b01: -1.0, 0b11: 1.0, 0b10: 3.0}

#: every accepted spelling of a constellation name, lower-cased, mapped to
#: its canonical name
CONSTELLATION_NAMES = {"bpsk": "bpsk", "qpsk": "qpsk", "qam16": "qam16", "16qam": "qam16"}


def make_constellation(spelling):
    """BPSK, Gray QPSK or Gray 16-QAM, unit average energy, named by the
    canonical name of a spelling in CONSTELLATION_NAMES, in any letter
    case."""
    name = CONSTELLATION_NAMES.get(spelling.lower())
    if name is None:
        raise ValueError(f"unknown constellation {spelling!r}")
    if name == "bpsk":
        points = np.array([1.0 + 0j, -1.0 + 0j])
    elif name == "qpsk":
        pts = []
        for lab in range(4):
            bi, bq = (lab >> 1) & 1, lab & 1
            pts.append(((1 - 2 * bi) + 1j * (1 - 2 * bq)) / np.sqrt(2.0))
        points = np.array(pts)
    else:
        pts = []
        for lab in range(16):
            bi, bq = (lab >> 2) & 3, lab & 3
            pts.append((_GRAY2[bi] + 1j * _GRAY2[bq]) / np.sqrt(10.0))
        points = np.array(pts)
    return Constellation(name, points)


def bits_to_symbol_indices(bits, constellation):
    """Pack a 0/1 array into constellation point indices (Gray labels)."""
    bps = constellation.bits_per_symbol
    if bits.size % bps:
        raise ValueError(f"bit count {bits.size} not divisible by {bps}")
    weights = 1 << np.arange(bps - 1, -1, -1)
    return bits.reshape(-1, bps).astype(np.int64) @ weights


# ---------------------------------------------------------------------------
# space-time codes


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
    worst_user_stderr: float


class _SchemeOps:
    """Factors of the covariance needed by each scheme, computed once."""

    def __init__(self, cfg):
        self.link = link = LINK_SCHEMES[cfg.scheme]
        w = cfg.covariance.entries
        self.root, self.rank = psd_sqrt(w)
        self.n_antennas = w.shape[0]
        lam, v = np.linalg.eigh(w)
        # fixed weights, one row per branch, or else the sampler of a random law
        self.fixed = self.sampler = None
        if link.weights == "principal":
            self.fixed = v[:, -1:].T
        elif link.weights == "bf_pair":
            # Alamouti branch pair: top-2 eigenvectors, power split by
            # eigenvalue, scaled so the two branch norms sum to 2; with one
            # antenna the second branch is zero, as with a rank-1 W
            lam2 = np.clip(lam[-2:][::-1], 0.0, None)
            tot = lam2.sum()
            b1 = v[:, -1] * math.sqrt(2.0 * lam2[0] / tot)
            b2 = v[:, -2] * math.sqrt(2.0 * lam2[1] / tot) if len(lam) > 1 else np.zeros_like(b1)
            self.fixed = np.stack([b1, b2])
        elif link.weights is not None:
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


class _Buffers:
    """One frame worker's arrays, by name.  An array is allocated on first
    use and handed out again for as long as it is asked for with the same
    shape and dtype, so the frames of a BER row reuse the same pages.  A
    fresh (M, T) temporary per frame goes back to the OS when it is freed,
    and the next frame's faults its pages in again."""

    def __init__(self):
        self._arrays = {}

    def __call__(self, name, shape, dtype=np.float64):
        a = self._arrays.get(name)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[name] = np.empty(shape, dtype)
        return a


def _nearest_point(values, scale, constellation, buf):
    """Index of the point p minimising |values - scale * p|^2, entry by entry,
    for values and a complex or real scale of any one shape.

    On a product grid this is the nearest level of values/scale on each axis,
    decided without dividing: with u = values * conj(scale) and
    e = |scale|^2, the real level index counts the midpoints m with
    Re(u) > e * m, and likewise on the imaginary axis.  A value exactly on a
    midpoint takes the lower level (ties have probability zero).  Where
    scale == 0 every point is equally far, and point 0 is returned.  Every
    step writes into arrays of the _Buffers buf, and the returned indices
    are one of them.
    """
    re_mids, im_mids, table = constellation.slicer
    shape = values.shape
    u = np.conjugate(scale, out=buf("slice_u", shape, np.complex128))
    np.multiply(values, u, out=u)
    e = np.abs(scale, out=buf("slice_e", shape))
    np.square(e, out=e)
    level = buf("slice_level", shape)
    above = buf("slice_above", shape, np.bool_)
    i_re = buf("slice_re", shape, np.intp)
    i_im = buf("slice_im", shape, np.intp)
    for axis, mids, count in ((u.real, re_mids, i_re), (u.imag, im_mids, i_im)):
        count.fill(0)
        for m in mids:
            count += np.greater(axis, np.multiply(e, m, out=level), out=above)
    i_re *= table.shape[1]
    i_re += i_im
    # every level pair indexes the table, so clipping never acts; unlike the
    # default mode it writes straight into out
    idx = np.take(table.ravel(), i_re, out=buf("slice_idx", shape, np.int64), mode="clip")
    np.copyto(idx, 0, where=np.equal(e, 0, out=above))
    return idx


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


class _CandidateSearch:
    """Exact nearest-candidate search over a fixed (K, L) complex candidate
    set, built once and queried read-only (frame threads share it).

    A k-d tree (Bentley, CACM 1975) over the candidates viewed as real
    (K, 2L) rows measures the sum of squares sum_j |y[j] - cand[k, j]|^2,
    and eps=0 keeps the search exact.  Two tuples can give the same
    candidate point (when an entry of B^H h is 0, say); repeated rows are
    dropped before the tree is built, so they resolve to the lowest index,
    as an argmin over all rows would.  keep holds the indices of the rows
    kept.  Equal distances to distinct points have probability zero.
    """

    def __init__(self, cand):
        # imported here (see the package docstring): scipy.spatial would add
        # ~0.41 s to the ~0.14 s import of sbfmc.cli on a 2-core x86 box
        from scipy.spatial import cKDTree

        cand = np.ascontiguousarray(cand, dtype=np.complex128).view(np.float64)
        order = np.lexsort(cand.T)  # stable: equal rows keep their index order
        rows = cand[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        self.keep = np.sort(order[first])
        self.tree = cKDTree(cand[self.keep])

    def query(self, y):
        """(B,) indices of the nearest candidate rows to the (B, L) complex
        observations y.  The tree raises ValueError for a non-finite
        observation (from an infinite power, say), where an argmin would
        return 0."""
        y = np.ascontiguousarray(y, dtype=np.complex128).view(np.float64)
        return self.keep[self.tree.query(y, eps=0)[1]]


def _check_search_rows(n_rows):
    """Refuse a BER row whose users' ML searches would hold more than
    _ML_ROW_GUARD candidate rows at once."""
    if n_rows > _ML_ROW_GUARD:
        raise ValueError(
            f"ML searches of {n_rows} candidate rows exceed the {_ML_ROW_GUARD} row guard"
        )


def _qostbc_searches(g, constellation, power):
    """One user's ML searches, as (symbol positions, tuples, search), for
    the effective stream channel g = B^H h.

    The code's ML metric splits exactly into a term in the symbol pair
    {s1, s4} and a term in {s2, s3} (Jafarkhani, IEEE Trans. Commun.,
    2001), so each pair is decided on its own over |C|^2 candidates."""
    pair_tuples = _all_tuples(2, constellation.size)
    gc = g.conj()
    sp = math.sqrt(power)
    searches = []
    for pos in ([0, 3], [1, 2]):
        s = np.zeros((len(pair_tuples), 4), dtype=np.complex128)
        s[:, pos] = constellation.points[pair_tuples]
        cand = sp * np.einsum("j,bjt->bt", gc, _qostbc_encode_batch(s))
        searches.append((pos, pair_tuples, _CandidateSearch(cand)))
    return searches


# ---------------------------------------------------------------------------
# frame pipeline


def frame_bit_count(cfg, ops):
    """Payload bits per frame for a scheme configuration and its factors."""
    bits = cfg.frame_length * cfg.constellation.bits_per_symbol
    if ops.link.multiplexed:
        bits *= ops.rank
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


def _detect_weighted(cfg, ops, h, y, info, rx, buf):
    """Scalar nearest point of every user's decision statistic after
    identity (one branch) or Alamouti (two branches) combining, all M users
    in one pass."""
    weights = info["weights"]
    amp = math.sqrt(cfg.power / len(weights))
    hc_t = h.conj().T
    # per-branch gains w @ h^H, (blocks, M), each read as its (M, blocks) view
    gains = [np.matmul(w, hc_t, out=buf(f"gain{b}", (len(w), h.shape[0]), np.complex128)).T
             for b, w in enumerate(weights)]
    if len(gains) == 1:
        z, scale = y, np.multiply(amp, gains[0], out=buf("scale", y.shape, np.complex128))
    else:
        z, scale = _alamouti_statistics(y, gains, amp, buf)
    return _nearest_point(z, scale, cfg.constellation, buf)


def _alamouti_statistics(y, gains, amp, buf):
    """Every user's combined statistics z and their real scales, (M, T) each,
    from the (M, T) received slots y and the two (M, T / 2) branch gains.

    With y1 = g1 s1 + g2 s2 + n1 and y2 = -g1 s2* + g2 s1* + n2 in a
    block's two slots, z1 = g1* y1 + g2 y2* and z2 = g2* y1 - g1 y2* are
    (|g1|^2 + |g2|^2) s_k + noise; both slots get the scale
    amp (|g1|^2 + |g2|^2).  Each product keeps the operand order of these
    formulas: the pinned BER digests hold these bits.
    """
    half = (y.shape[0], y.shape[1] // 2)
    y1, y2 = y[:, 0::2], y[:, 1::2]
    g1, g2 = gains
    y2c = np.conjugate(y2, out=buf("alam_y2c", half, np.complex128))
    a = buf("alam_a", half, np.complex128)
    b = buf("alam_b", half, np.complex128)
    z = buf("alam_z", y.shape, np.complex128)
    np.multiply(np.conjugate(g1, out=a), y1, out=a)
    np.add(a, np.multiply(g2, y2c, out=b), out=z[:, 0::2])
    np.multiply(np.conjugate(g2, out=a), y1, out=a)
    np.subtract(a, np.multiply(g1, y2c, out=b), out=z[:, 1::2])
    scale = buf("alam_scale", y.shape)
    s1, s2 = scale[:, 0::2], scale[:, 1::2]
    np.square(np.abs(g1, out=s1), out=s1)
    np.square(np.abs(g2, out=s2), out=s2)
    np.multiply(amp, np.add(s1, s2, out=s1), out=s1)
    s2[...] = s1
    return z, scale


def _encode_multiplexed(cfg, ops, bits, rng):
    """One symbol per stream of the covariance root B in every slot."""
    con = cfg.constellation
    idx = bits_to_symbol_indices(bits, con).reshape(cfg.frame_length, ops.rank)
    x = math.sqrt(cfg.power) * (ops.root @ con.points[idx].T)
    return x, {"symbols": idx}


def _tuple_searches(cfg, ops, h):
    """Each user's one ML search, over the |C|^d noiseless received points
    of the symbol tuples of a slot."""
    con = cfg.constellation
    _check_search_rows(h.shape[0] * con.size**ops.rank)
    g = h.conj() @ ops.root  # (M, d), row i = (B^H h_i)^*
    tuples = _all_tuples(ops.rank, con.size)
    sym = con.points[tuples]  # (K^d, d)
    sp = math.sqrt(cfg.power)
    return [[(slice(None), tuples, _CandidateSearch(sp * (sym @ gi)[:, None]))] for gi in g]


def _detect_ml(cfg, ops, h, y, info, rx, buf):
    """Exhaustive ML decisions of every user on each block of L slots: each
    of the user's searches decides the symbols at its positions, stacked
    into one (M, T / L, rank) array."""
    blk = ops.link.block_length
    out = buf("ml_idx", (len(rx), y.shape[1] // blk, ops.rank), np.int64)
    for yi, searches, oi in zip(y, rx, out):
        y_blocks = yi.reshape(-1, blk)
        for pos, tuples, search in searches:
            oi[:, pos] = tuples[search.query(y_blocks)]
    return out


def _encode_qostbc(cfg, ops, bits, rng):
    """Quasi-orthogonal 4x4 blocks on the four streams of B."""
    con = cfg.constellation
    idx = bits_to_symbol_indices(bits, con).reshape(-1, 4)
    blocks = _qostbc_encode_batch(con.points[idx])  # (B, 4, 4)
    x = math.sqrt(cfg.power) * np.einsum("nj,bjt->nbt", ops.root, blocks)
    return x.reshape(ops.n_antennas, cfg.frame_length), {"symbols": idx}


def _qostbc_user_searches(cfg, ops, h):
    """Each user's two pair searches, 2 |C|^2 candidate rows per user."""
    _check_search_rows(2 * h.shape[0] * cfg.constellation.size**2)
    g = ops.root.conj().T @ h.T  # (4, M), column i = B^H h_i
    return [_qostbc_searches(gi, cfg.constellation, cfg.power) for gi in g.T]


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
    detect: (cfg, ops, h, y, info, rx, buf) -> one (M, ...) array of every
        user's detected symbol indices from the (M, T) received signal y,
        row i shaped like info["symbols"] (or broadcast against it).  Its
        work arrays and its result come from buf, the frame worker's
        _Buffers, so the result is valid until the worker's next frame.  It
        only queries rx and builds no search of its own.
    receiver: (cfg, ops, h) -> rx, the read-only ML search state: per
        user, a list of (symbol positions in a block, their tuples, the
        _CandidateSearch that decides them).  It is built once per
        simulate_worst_user_ber call before the frame threads start (the
        threads share the candidate trees), or None when detect needs no
        state (rx is then None).
    multiplexed: sends one symbol per stream of B in every slot.
    rank: covariance rank the code needs, or None for any.
    """

    block_length: int
    weights: object
    encode: object
    detect: object
    receiver: object = None
    multiplexed: bool = False
    rank: object = None


LINK_SCHEMES = {
    "bf": LinkScheme(1, "principal", _encode_weighted, _detect_weighted),
    "gauss_sbf": LinkScheme(1, "gauss_sbf", _encode_weighted, _detect_weighted),
    "ellip_sbf": LinkScheme(1, "ellip_sbf", _encode_weighted, _detect_weighted),
    "bf_alamouti": LinkScheme(2, "bf_pair", _encode_weighted, _detect_weighted),
    "gauss_sbf_alamouti": LinkScheme(2, "gauss_sbf", _encode_weighted, _detect_weighted),
    "ellip_sbf_alamouti": LinkScheme(2, "ellip_sbf", _encode_weighted, _detect_weighted),
    "precoded_sm": LinkScheme(1, None, _encode_multiplexed, _detect_ml,
                              receiver=_tuple_searches, multiplexed=True),
    "precoded_qostbc": LinkScheme(4, None, _encode_qostbc, _detect_ml,
                                  receiver=_qostbc_user_searches, rank=4),
}


def _simulate_one_frame(cfg, ops, ch, rx, rng, buf):
    """(M,) bit error counts of one frame, worked out in the (M, T) arrays
    of the frame worker's buffers buf."""
    bits = rng.integers(0, 2, frame_bit_count(cfg, ops), dtype=np.uint8)
    x, info = ops.link.encode(cfg, ops, bits, rng)
    h = ch.channels
    shape = (h.shape[0], cfg.frame_length)
    # noise first: the other order measured ~0.6 ms slower per M = 16, T = 1440 frame
    noise = fill_randn_complex(rng, buf("noise", shape, np.complex128), buf("normals", (2, *shape)))
    y = np.matmul(h.conj(), x, out=buf("y", shape, np.complex128))
    y += noise
    detected = ops.link.detect(cfg, ops, h, y, info, rx, buf)
    # differing bits of every user's indices against the sent ones, in place
    diff = np.bitwise_xor(detected, info["symbols"], out=detected)
    ones = np.bitwise_count(diff, out=buf("ones", detected.shape, np.uint8))
    return ones.reshape(len(ones), -1).sum(axis=1, dtype=np.int64)


def simulate_worst_user_ber(cfg, ch, n_frames, stream):
    """Uncoded per-user and worst-user BER over seeded multicast frames.

    Frames are independent work units keyed by (stream, frame index) and
    merged by integer error-count summation, so the result is identical
    for any SBF_THREADS worker count.  Frame f runs on worker f mod W, with
    W = min(SBF_THREADS, n_frames); each worker allocates its frame arrays
    once and reuses them for every frame it runs.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    ops = _SchemeOps(cfg)
    if ch.n_antennas != ops.n_antennas:
        raise ValueError("channel/covariance dimension mismatch")
    n_bits = frame_bit_count(cfg, ops)
    receiver = ops.link.receiver
    rx = None if receiver is None else receiver(cfg, ops, ch.channels)

    workers = min(n_workers(), n_frames)

    def run(worker):
        buf = _Buffers()
        errors = np.zeros(ch.channels.shape[0], dtype=np.int64)
        for frame_idx in range(worker, n_frames, workers):
            errors += _simulate_one_frame(cfg, ops, ch, rx, stream.substream(frame_idx), buf)
        return errors

    errors = np.sum(map_in_order(run, workers), axis=0)
    total_bits = n_bits * n_frames
    ber = errors / total_bits
    worst = float(ber.max())
    stderr = math.sqrt(max(worst * (1.0 - worst), 0.0) / total_bits)
    return SimResult(ber, worst, total_bits, stderr)


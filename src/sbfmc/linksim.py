"""Symbol-level multicast link simulator: uncoded per-user and worst-user
BER for the beamforming, stochastic-beamforming, Alamouti-coded and
precoded transmission schemes, with exhaustive ML detection where needed.

Conventions: noise is CN(0, 1) per received symbol, so the power P carries
the SNR; weights are redrawn per symbol (SBF) or per 2-symbol block
(SBF-Alamouti); precoded schemes use a fixed square-root factor B of the
transmit covariance.  All users receive the same payload bits (multicast)
through independent noise.  A sweep runs its schemes and powers on common
random numbers: a frame's payload bits and noise are shared by every
scheme and power, and a scheme's weights by every power.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .capacity import CovarianceMatrix
from .sampling import fill_randn_planes, psd_sqrt, randn_complex
from .schemes import SCHEMES

_ML_SEARCH_GUARD = 10**6
# candidate rows that one scheme's ML searches may hold at once in a sweep,
# over all users: 2^22 one-slot precoded_sm rows take about 170 MB (42 B a row),
# 2^22 four-slot QOSTBC rows about 380 MB (96 B a row)
_ML_ROW_GUARD = 1 << 22


def n_workers():
    """Worker cap from the SBF_THREADS environment variable (default 1)."""
    raw = os.environ.get("SBF_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SBF_THREADS must be a positive integer, got {raw!r}")
    return workers


def map_in_order(fn, n):
    """[fn(0), ..., fn(n - 1)], on up to n_workers() threads when n > 1."""
    workers = min(n_workers(), n)
    if workers > 1:
        # imported here, off the startup path
        from concurrent.futures import ThreadPoolExecutor

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
        if len(self.points) < 2:
            raise ValueError(f"{self.name}: needs two points or more, got {len(self.points)}")
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
        """The _Slicer of a product-grid constellation.  Raises ValueError
        when the points do not fill such a grid one-to-one (an 8-PSK,
        say)."""
        re_mids = _level_midpoints(self.points.real)
        im_mids = _level_midpoints(self.points.imag)
        table = np.full((len(re_mids) + 1, len(im_mids) + 1), -1, dtype=np.int64)
        table[np.searchsorted(re_mids, self.points.real),
              np.searchsorted(im_mids, self.points.imag)] = np.arange(self.size)
        if table.size != self.size or (table < 0).any():
            raise ValueError(f"{self.name}: points do not form a product grid of per-axis levels")
        table = table.ravel()
        return _Slicer(re_mids, im_mids, table.astype(np.min_scalar_type(table.size - 1)),
                       int(np.flatnonzero(table == 0)[0]))


@dataclass(frozen=True)
class _Slicer:
    """Per-axis decision data of a product-grid constellation.

    re_mids, im_mids: the midpoints between the sorted real levels, and
        between the sorted imaginary levels (none on a one-level axis).
    points: (cells,) point index of each cell, the level pair
        (i_re, i_im) numbered i_re * n_im + i_im, in the unsigned dtype
        that holds every cell (uint8 up to 256 points); cells are sliced
        in that dtype, so the decisions they map to keep it.
    cell0: the cell of point 0.
    """

    re_mids: np.ndarray
    im_mids: np.ndarray
    points: np.ndarray
    cell0: int


def _level_midpoints(x):
    """Midpoints between the sorted distinct values of x; values less than
    1e-9 apart (rounding, in a unit-energy constellation) are one level."""
    v = np.unique(x)
    levels = v[np.diff(v, prepend=-np.inf) > 1e-9]
    return (levels[1:] + levels[:-1]) / 2


# the 16-QAM axis level of each 2-bit Gray label 00, 01, 10, 11
_GRAY2 = np.array([-3.0, -1.0, 3.0, 1.0])

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
        lab = np.arange(4)
        points = ((1 - 2 * (lab >> 1)) + 1j * (1 - 2 * (lab & 1))) / np.sqrt(2.0)
    else:
        lab = np.arange(16)
        points = (_GRAY2[lab >> 2] + 1j * _GRAY2[lab & 3]) / np.sqrt(10.0)
    return Constellation(name, points)


def bits_to_symbol_indices(bits, constellation):
    """Pack a 0/1 array into constellation point indices (Gray labels)."""
    bps = constellation.bits_per_symbol
    if bits.size % bps:
        raise ValueError(f"bit count {bits.size} not divisible by {bps}")
    weights = 1 << np.arange(bps - 1, -1, -1)
    return bits.reshape(-1, bps).astype(np.int64) @ weights


# ---------------------------------------------------------------------------
# scheme configuration and per-scheme precomputation


@dataclass(frozen=True)
class SchemeConfig:
    """One scheme's link: the scheme, the transmit covariance, the
    constellation and the frame length T.  power is the SNR of a one-row
    simulation (simulate_worst_user_ber); a sweep (simulate_ber_sweep)
    takes its powers apart and does not read it."""

    scheme: str
    covariance: CovarianceMatrix
    constellation: Constellation
    power: float = 1.0
    frame_length: int = 1440

    def __post_init__(self):
        link = SCHEMES[self.scheme].link if self.scheme in SCHEMES else None
        if link is None:
            raise ValueError(f"unknown link scheme {self.scheme!r}")
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


class _Buffers:
    """One frame worker's arrays, by role.  Each role keeps one block of
    memory, grown to the largest request, and hands out a view of it in the
    shape and dtype asked for, so every frame, scheme and power a worker
    runs reuses the same pages, and the one-branch and Alamouti detectors
    share the blocks of the roles they both fill.  Two roles never share
    memory, and a role's array holds until the role is asked for again.  A
    fresh (M, T) temporary per frame goes back to the OS when it is freed,
    and the next frame faults its pages in again."""

    def __init__(self):
        self._blocks = {}

    def __call__(self, role, shape, dtype=np.float64):
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        block = self._blocks.get(role)
        if block is None or block.size < size:
            block = self._blocks[role] = np.empty(size, np.uint8)
        return block[:size].view(dtype).reshape(shape)


def _slice_cells(u_re, u_im, e, amp, constellation, buf):
    """The cell (see _Slicer) of the point p minimising
    |values - amp * scale * p|^2, entry by entry, from u = values * conj(scale),
    given as its real and imaginary parts u_re and u_im of one shape,
    e = |scale|^2, which broadcasts against them, and the amplitude
    amp >= 0.  The constellation has two points or more, so some axis has a
    midpoint.

    On a product grid this is the nearest level of values / (amp * scale)
    on each axis, decided without dividing: the real level index counts the
    midpoints m with u_re > amp * e * m, and likewise on the imaginary axis
    (a zero midpoint needs no level array).  A value exactly on a midpoint
    takes the lower level (ties have probability zero).  Where scale == 0
    every point is equally far, and the cell of point 0 is returned (at
    amp = 0 too every point is equally far, and any cell is nearest).  Every
    step writes into arrays of the _Buffers buf, and the returned cells, of
    dtype slicer.points.dtype, are one of them.
    """
    sl = constellation.slicer
    above = buf("slice_above", u_re.shape, np.bool_)
    cell = buf("slice_cell", u_re.shape, sl.points.dtype)
    # amp * e * m by midpoint m: a square grid has the same ones on both axes
    levels = {0.0: 0.0}
    first = True
    for axis, mids in ((u_re, sl.re_mids), (u_im, sl.im_mids)):
        if not first and len(mids):
            np.multiply(cell, len(mids) + 1, out=cell)  # the real index's weight n_im
        for m in mids:
            level = levels.get(m)
            if level is None:
                level = buf(f"slice_level{len(levels)}", e.shape)
                levels[m] = np.multiply(e, amp * m, out=level)
            np.greater(axis, level, out=above)
            if first:
                np.copyto(cell, above)
                first = False
            else:
                np.add(cell, above, out=cell)
    np.copyto(cell, sl.cell0, where=np.equal(e, 0, out=buf("slice_zero", e.shape, np.bool_)))
    return cell


def _all_tuples(n_symbols, size):
    """(size^n, n) mixed-radix enumeration of symbol-index tuples."""
    if size**n_symbols > _ML_SEARCH_GUARD:
        raise ValueError(
            f"search space {size}^{n_symbols} exceeds the {_ML_SEARCH_GUARD} guard"
        )
    return np.indices((size,) * n_symbols).reshape(n_symbols, -1).T


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
    """Refuse a scheme whose users' ML searches would hold more than
    _ML_ROW_GUARD candidate rows at once."""
    if n_rows > _ML_ROW_GUARD:
        raise ValueError(
            f"ML searches of {n_rows} candidate rows exceed the {_ML_ROW_GUARD} row guard"
        )


def _searches(link, rank, constellation, gains):
    """Every user's ML searches at unit amplitude: per row g = h^H B of the
    (M, rank) stream gains, one (positions, tuples, search) per group of
    symbol positions in link.groups (one group of all rank positions when
    None).  tuples are the group's |C|^k symbol-index tuples; search is the
    _CandidateSearch over the noiseless received blocks rows @ g, where
    rows are the (|C|^k L, rank) slot rows of the tuples' code blocks
    (other symbols 0).  At power P a detector queries y / sqrt(P), whose
    nearest candidate is that of y among sqrt(P) times these.  The code
    blocks are built once for all users.  Refuses before any search is
    built if the users' candidate rows exceed the row guard."""
    groups = link.groups or (tuple(range(rank)),)
    _check_search_rows(len(gains) * sum(constellation.size ** len(pos) for pos in groups))
    blocks = []
    for pos in groups:
        tuples = _all_tuples(len(pos), constellation.size)
        s = np.zeros((len(tuples), rank), dtype=np.complex128)
        s[:, pos] = constellation.points[tuples]
        blocks.append((pos, tuples, link.code(s).reshape(-1, rank)))
    return [[(pos, tuples, _CandidateSearch((rows @ g).reshape(len(tuples), -1)))
             for pos, tuples, rows in blocks] for g in gains]


class _SchemeState:
    """One scheme's read-only state in a sweep, built once before the frame
    threads start and shared by them: cfg (its power is not read), the
    (M, N) channels h, the root B and rank of the covariance (one
    psd_sqrt), the payload bits per frame n_bits, the substream lane of the
    scheme's weights (2 + its place in SCHEMES), and the scheme's frame
    steps, chosen here from whether its code is None.  A weight law's
    encode draws through draw_weights; the fixed law's gains, the same
    every frame, are formed here once, (M, 1) per branch and broadcast over
    the slots (see _branch_gains), and are None for a drawn law.  A code's
    detect queries searches, every user's ML searches (see _searches).

    encode(row, bits, rng, buf) -> the (N, T) transmit signal at unit power
    and the frame's info: the sent point indices as info["symbols"],
    (T / L, k) for k symbols per block of L slots, and for a weight law
    what its detector needs of the users' branch gains as info["gains"].
    It draws only weights from rng, so results reproduce.
    detect(row, y, info, sp, buf) -> every user's decided point indices
    from the (M, T) received signal y = sp * h^H x + noise at power sp^2,
    (M, T / L, k), laid out like info["symbols"]; the sweep counts their
    bit errors in that array (_bit_errors).  Its work arrays, the returned
    one included, come from buf, the frame worker's _Buffers, and it may
    overwrite y.
    """

    def __init__(self, cfg, h):
        self.cfg, self.h = cfg, h
        self.link = link = SCHEMES[cfg.scheme].link
        self.lane = 2 + list(SCHEMES).index(cfg.scheme)
        w = cfg.covariance.entries
        self.root, self.rank = psd_sqrt(w)
        if link.rank is not None and self.rank != link.rank:
            raise ValueError(
                f"{cfg.scheme} needs a rank-{link.rank} covariance, got rank {self.rank}"
            )
        if h.shape[1] != w.shape[0]:
            raise ValueError("channel/covariance dimension mismatch")
        blk = link.block_length
        self.fixed = self.gains = self.searches = None
        if link.code is None:
            self.encode, self.detect = _encode_weighted, _detect_weighted
            n_symbols = cfg.frame_length
            if link.weights == "fixed":
                # the top L eigenvectors of W, power split by eigenvalue so
                # that the L branch norms sum to L (the factor is exactly 1
                # at L = 1); a branch past N or on a zero eigenvalue is zero
                lam, v = np.linalg.eigh(w)
                top = np.clip(lam[::-1][:blk], 0.0, None)
                self.fixed = np.zeros((blk, w.shape[0]), dtype=np.complex128)
                self.fixed[:len(top)] = (v[:, ::-1][:, :blk] * np.sqrt(blk * top / top.sum())).T
                self.gains = _branch_gains(h, tuple(b[None, :] for b in self.fixed), _Buffers())
        else:
            self.encode, self.detect = _encode_precoded, _detect_ml
            n_symbols = cfg.frame_length // blk * self.rank
            self.searches = _searches(link, self.rank, cfg.constellation, h.conj() @ self.root)
        self.n_bits = n_symbols * cfg.constellation.bits_per_symbol

    def draw_weights(self, rng, count):
        """A tuple of block_length (count, N) weight blocks of the scheme's
        weight law, one per branch (two for the Alamouti pair).

        fixed: the fixed branches, repeated; rng is not read.
        gauss_sbf: w = B g with g ~ CN(0, I_r), so E[w w^H] = W and the
            normalized gain |h^H w|^2 / (h^H W h) is unit-mean exponential.
        ellip_sbf: w = sqrt(r) B u with u uniform on the complex unit
            sphere in dimension r; the normalized gain is r * Beta(1, r-1).

        Each row draws branches * r complex normals, split across the
        branches r columns each.  Gaussian branches are thus independent
        draws.  Ellipsoid branches are drawn jointly, one uniform vector on
        the sphere in dimension branches * r: this is the construction under
        which the two-branch combined gain (|h^H w1|^2 + |h^H w2|^2)/(2 rho)
        follows the r * Beta(2, 2r-2) law of the closed-form rate (two
        independent sphere draws do not).
        """
        if self.fixed is not None:
            return tuple(np.repeat(b[None, :], count, axis=0) for b in self.fixed)
        r, branches = self.rank, self.link.block_length
        g = randn_complex(rng, count, branches * r)
        if self.link.weights == "ellip_sbf":
            g = g / np.linalg.norm(g, axis=1, keepdims=True) * np.sqrt(branches * r)
        return tuple(g[:, k * r:(k + 1) * r] @ self.root.T for k in range(branches))


# ---------------------------------------------------------------------------
# frame pipeline


def _encode_weighted(row, bits, rng, buf):
    """One symbol per slot on drawn weights, at unit power, Alamouti-coded
    over two branches when the block is two slots long; info also holds
    what the detector needs of the users' gains on those weights."""
    cfg = row.cfg
    con = cfg.constellation
    idx = bits_to_symbol_indices(bits, con).reshape(-1, row.link.block_length)
    s = con.points[idx]
    w = row.draw_weights(rng, s.shape[0])
    if len(w) == 1:
        x = (w[0] * s).T
    else:
        amp = math.sqrt(0.5)
        x = np.empty((row.root.shape[0], cfg.frame_length), dtype=np.complex128)
        x[:, 0::2] = amp * (w[0] * s[:, 0:1] + w[1] * s[:, 1:2]).T
        x[:, 1::2] = amp * (-w[0] * np.conj(s[:, 1:2]) + w[1] * np.conj(s[:, 0:1])).T
    gains = row.gains if row.gains is not None else _branch_gains(row.h, w, buf)
    return x, {"symbols": idx, "gains": gains}


def _branch_gains(h, weights, buf):
    """What the weighted detector needs of every user's branch gains
    g_b = h^H w_b at unit amplitude, from the (B, N) weight blocks of each
    branch: (conj(g), |g|^2) for one branch, and for the Alamouti pair
    (g1, g2, s, s^2) with the real combined gain s = |g1|^2 + |g2|^2; each
    (M, B), formed once for every power.  The products h^* w^T come out
    contiguous, as the Alamouti combiner, which reads each gain three
    times, wants."""
    hc = h.conj()
    g = [np.matmul(hc, w.T, out=buf(f"gain{b}", (len(h), len(w)), np.complex128))
         for b, w in enumerate(weights)]
    e = buf("gain_e", g[0].shape)
    if len(g) == 1:
        np.square(np.abs(g[0], out=e), out=e)
        return np.conjugate(g[0], out=g[0]), e
    s = buf("gain_s", g[0].shape)
    np.square(np.abs(g[0], out=s), out=s)
    s += np.square(np.abs(g[1], out=e), out=e)
    return g[0], g[1], s, np.square(s, out=e)


def _detect_weighted(row, y, info, sp, buf):
    """Every user's scalar nearest-point decisions after identity (one
    branch) or Alamouti (two branches) combining, all M users in one pass,
    at the amplitude sp / sqrt(L) of each of the L branches."""
    gains = info["gains"]
    if row.link.block_length == 1:
        conj_g, e = gains
        u = np.multiply(y, conj_g, out=y)  # y is not read again
        u_re, u_im = u.real[None], u.imag[None]
    else:
        u_re, u_im = _alamouti_statistics(y, gains, buf)
        e = gains[3]
    con = row.cfg.constellation
    cells = _slice_cells(u_re, u_im, e, sp / math.sqrt(row.link.block_length), con, buf)
    # every cell is in the table, so clipping never acts; unlike the
    # default mode it writes straight into out
    points = np.take(con.slicer.points, cells, out=buf("decided", cells.shape, cells.dtype),
                     mode="clip")
    # slot k of block j is at [k, :, j] of the (L, M, T / L) cells
    return points.transpose(1, 2, 0)


def _alamouti_statistics(y, gains, buf):
    """Every user's combined statistics z times their real combined gain s,
    as the real and imaginary parts of u = z s, from the (M, T) received
    slots y and the gains (g1, g2, s, s^2) of _branch_gains.  Each part is
    (2, M, T / 2), slot k of block j at [k, :, j]: both slots of a block
    share one gain.

    With y1 = g1 s1 + g2 s2 + n1 and y2 = -g1 s2* + g2 s1* + n2 in a
    block's two slots (at unit amplitude), z1 = g1* y1 + g2 y2* and
    z2 = g2* y1 - g1 y2* are (|g1|^2 + |g2|^2) s_k + noise.  Each product
    keeps the operand order of these formulas: the pinned BER digests hold
    these bits.  u = z s is two
    real products, which equal the complex product z (s + 0i) but for the
    sign of a zero: its zero imaginary part only adds a +-0.
    """
    g1, g2, s, _ = gains
    half = (y.shape[0], y.shape[1] // 2)
    y1, y2 = y[:, 0::2], y[:, 1::2]
    y2c = np.conjugate(y2, out=buf("alam_y2c", half, np.complex128))
    z = buf("alam_z", half, np.complex128)
    b = buf("alam_b", half, np.complex128)
    u = buf("alam_u", (2, 2, *half))
    for k, (ga, gb, combine) in enumerate(((g1, g2, np.add), (g2, g1, np.subtract))):
        np.multiply(np.conjugate(ga, out=z), y1, out=z)
        combine(z, np.multiply(gb, y2c, out=b), out=z)
        np.multiply(z.real, s, out=u[0, k])
        np.multiply(z.imag, s, out=u[1, k])
    return u[0], u[1]


def _encode_precoded(row, bits, rng, buf):
    """The scheme's code on the streams of the covariance root B, at unit
    power: each slot of a block sends B times its row of stream symbols."""
    con = row.cfg.constellation
    idx = bits_to_symbol_indices(bits, con).reshape(-1, row.rank)
    slots = row.link.code(con.points[idx]).reshape(-1, row.rank)
    return row.root @ slots.T, {"symbols": idx}


def _detect_ml(row, y, info, sp, buf):
    """Every user's exhaustive ML decisions on each block of L slots: each
    of the user's searches, built at unit amplitude, decides the symbols at
    its positions from y / sp, stacked into one (M, T / L, rank) array of
    indices in the smallest unsigned dtype that holds them (uint8 up to 256
    points).  At sp = 0 every candidate is the zero block, and every block
    decides the lowest index, tuple 0."""
    blk = row.link.block_length
    out = buf("decided", (len(row.searches), y.shape[1] // blk, row.rank),
              np.min_scalar_type(row.cfg.constellation.size - 1))
    if sp == 0:
        out.fill(0)
        return out
    np.divide(y.view(np.float64), sp, out=y.view(np.float64))
    for yi, searches, oi in zip(y, row.searches, out):
        y_blocks = yi.reshape(-1, blk)
        for pos, tuples, search in searches:
            oi[:, pos] = tuples[search.query(y_blocks)]
    return out


def _bit_errors(decided, sent):
    """(M,) bit errors of every user: the label bits in which the decided
    point indices, (M, *sent.shape) for 2-D sent ones, differ from the
    sent ones, counted in decided itself (overwritten), whatever its
    memory layout."""
    # the sent indices in the layout of one user's decisions, so that the
    # XOR runs along memory: the Alamouti decisions are slot-major, and
    # against C-ordered sent indices numpy loops over pairs of slots
    own = np.empty_like(decided[0])
    own[...] = sent
    diff = np.bitwise_xor(decided, own, out=decided)
    return np.bitwise_count(diff, out=diff).sum(axis=(1, 2), dtype=np.int64)


class _Sweep:
    """A BER sweep's read-only state, shared by the frame threads: one
    _SchemeState per scheme config (all of one frame length), every
    power's amplitude sqrt(P), the (M, N) channels h and the stream whose
    substreams key the frames.  n_bits is the longest payload of the
    schemes; each takes its prefix."""

    def __init__(self, cfgs, powers, h, stream):
        self.states = [_SchemeState(cfg, h) for cfg in cfgs]
        self.amplitudes = [math.sqrt(p) for p in powers]
        self.hc, self.stream = h.conj(), stream
        self.n_bits = max(row.n_bits for row in self.states)

    def decisions(self, frame, buf):
        """Yield (i, j, decided, sent) of scheme i at power j for one frame,
        scheme by scheme: every user's decided point indices, an array of
        the _Buffers buf that holds until the next yield, and the sent ones.

        The frame draws from substream `frame` of the stream, in lanes:
        lane 0 holds the (2, M, T) noise planes and lane 1 one payload-bit
        draw of n_bits, which every scheme and power share; lane row.lane
        holds scheme row's weights.  Each scheme draws and encodes once, at
        unit power, and each power P forms y = sqrt(P) h^H x + n and
        detects.  So a (scheme, power) row depends on neither the other
        schemes nor the other powers."""
        shape = (self.hc.shape[0], self.states[0].cfg.frame_length)
        # the planes are drawn into y's block, free until the first power,
        # and interleaved: every y is then two passes along memory
        planes = fill_randn_planes(self.stream.substream(frame), buf("y", (2, *shape)))
        noise = buf("noise", shape, np.complex128)
        noise.real = planes[0]
        noise.imag = planes[1]
        bits = self.stream.substream(frame, lane=1).integers(0, 2, self.n_bits, dtype=np.uint8)
        for i, row in enumerate(self.states):
            rng = self.stream.substream(frame, lane=row.lane)
            x, info = row.encode(row, bits[:row.n_bits], rng, buf)
            hx = np.matmul(self.hc, x, out=buf("hx", shape, np.complex128))
            for j, sp in enumerate(self.amplitudes):
                y = buf("y", shape, np.complex128).view(np.float64)
                np.multiply(hx.view(np.float64), sp, out=y)
                # the bits of y += the complex noise randn_complex would draw
                y = np.add(y, noise.view(np.float64), out=y).view(np.complex128)
                yield i, j, row.detect(row, y, info, sp, buf), info["symbols"]


def _sim_result(errors, total_bits):
    """The SimResult of the (M,) bit error counts of total_bits bits each."""
    ber = errors / total_bits
    worst = float(ber.max())
    stderr = math.sqrt(max(worst * (1.0 - worst), 0.0) / total_bits)
    return SimResult(ber, worst, total_bits, stderr)


def simulate_ber_sweep(cfgs, powers, ch, n_frames, stream):
    """Uncoded per-user and worst-user BER of every scheme config in cfgs
    (their power is not read) at every power in powers, over n_frames
    seeded multicast frames that they all share: common random numbers (see
    _Sweep.decisions).  Returns the SimResult of scheme i at power j as
    [i][j].

    Frames are independent work units keyed by (stream, frame index) and
    merged by integer error-count summation, so the result is identical
    for any SBF_THREADS worker count.  Frame f runs on worker f mod W, with
    W = min(SBF_THREADS, n_frames); each worker holds one _Buffers for
    every frame, scheme and power it runs.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    sweep = _Sweep(cfgs, powers, ch.channels, stream)
    workers = min(n_workers(), n_frames)

    def run(worker):
        buf = _Buffers()
        errors = np.zeros((len(cfgs), len(powers), ch.channels.shape[0]), dtype=np.int64)
        for frame in range(worker, n_frames, workers):
            for i, j, decided, sent in sweep.decisions(frame, buf):
                errors[i, j] += _bit_errors(decided, sent)
        return errors

    errors = np.sum(map_in_order(run, workers), axis=0)
    return [[_sim_result(e, row.n_bits * n_frames) for e in by_power]
            for row, by_power in zip(sweep.states, errors)]


def simulate_worst_user_ber(cfg, ch, n_frames, stream):
    """Uncoded per-user and worst-user BER of one scheme at cfg.power: the
    one-scheme, one-power case of simulate_ber_sweep."""
    return simulate_ber_sweep([cfg], [cfg.power], ch, n_frames, stream)[0][0]

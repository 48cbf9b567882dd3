"""Seed-reproducible random streams, complex Gaussian draws, channel sets
and PSD square roots.

Randomness is keyed, not sequential: every (seed, stream_id) pair owns a
Philox counter-based stream, and independent work units (frames, grid rows,
realizations) draw from sub-streams at disjoint counter blocks.  Results are
therefore identical for any worker count and platform.

A complex Gaussian draw is two float planes of standard normals, each
multiplied by fl(1/sqrt(2)) (fill_randn_planes).  That gives the bits of
the complex (re + 1j * im) / sqrt(2), so the link simulator adds the planes
straight into the real and imaginary parts of a received signal, with no
complex noise array.
"""

from dataclasses import dataclass

import numpy as np

#: relative eigenvalue cutoff for the numerical rank of a covariance
RANK_TOL = 1e-9


@dataclass(frozen=True)
class SeededStream:
    """Handle of a reproducible random stream, keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self):
        """Fresh numpy Generator positioned at the start of this stream."""
        return np.random.Generator(
            np.random.Philox(key=[self.seed % 2**64, self.stream_id % 2**64])
        )

    def substream(self, index, lane=0):
        """Generator for independent work unit ``index``, in one of its
        lanes: ``index`` sets Philox counter word 1 and ``lane`` word 2, so
        every (unit, lane) pair owns a disjoint counter block, from which it
        may draw up to 2^66 values.  Lanes keep a unit's separate draws (a
        BER frame's noise, payload bits and each scheme's weights) apart,
        so that no draw moves when another changes length."""
        bg = np.random.Philox(
            key=[self.seed % 2**64, self.stream_id % 2**64],
            counter=[0, int(index) + 1, int(lane), 0],
        )
        return np.random.Generator(bg)


def randn_complex(rng, *shape):
    """i.i.d. zero-mean unit-variance circular complex Gaussians: the real
    and imaginary planes of fill_randn_planes, interleaved."""
    planes = fill_randn_planes(rng, np.empty((2, *shape)))
    out = np.empty(shape, dtype=np.complex128)
    out.real = planes[0]
    out.imag = planes[1]
    return out


def fill_randn_planes(rng, planes):
    """Fill the float array planes, of shape (2, *shape), with the real
    (planes[0]) and imaginary (planes[1]) parts of i.i.d. zero-mean
    unit-variance circular complex Gaussians; return planes.  Callers that
    draw many equal-shaped blocks, such as the link simulator's noise,
    reuse planes instead of faulting fresh pages in each time.

    One draw of 2 * size normals is the same Philox sequence as a draw for
    the real parts followed by one for the imaginary parts.  Each normal is
    then multiplied by fl(1/sqrt(2)), which gives the bits of
    (re + 1j * im) / sqrt(2): numpy divides a complex a + bi by a real c
    (as c + 0i) with Smith's algorithm, whose parts are then
    (a + b * 0) * fl(1/c) and (b - a * 0) * fl(1/c).  The two differ only
    in the sign of a zero part (a normal of -0.0 comes out +0.0 from the
    division), which no sum with a nonzero value and no comparison can tell
    apart.
    """
    rng.standard_normal(out=planes)
    planes *= 1.0 / np.sqrt(2.0)
    return planes


@dataclass(frozen=True)
class ChannelSet:
    """M user channels of dimension N, rows h_1 ... h_M."""

    channels: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.channels)
        if h.ndim != 2 or h.size == 0:
            raise ValueError("channels must be a non-empty (M, N) array")
        if np.any(np.all(h == 0, axis=1)):
            raise ValueError("all-zero channel")


def psd_sqrt(w):
    """Square-root factor B (N x r) with B B^H = W and r the numerical rank.

    W must be Hermitian PSD (symmetry residual <= 1e-10); eigenvalues below
    RANK_TOL * lambda_max are treated as zero.
    """
    w = np.asarray(w, dtype=np.complex128)
    if np.linalg.norm(w - w.conj().T) > 1e-10:
        raise ValueError("covariance is not Hermitian (residual > 1e-10)")
    lam, v = np.linalg.eigh(0.5 * (w + w.conj().T))
    lam_max = lam[-1]
    if lam_max <= 0:
        raise ValueError("covariance has no positive eigenvalue")
    keep = lam > RANK_TOL * lam_max
    b = v[:, keep] * np.sqrt(lam[keep])
    return b, int(keep.sum())

"""Seed-reproducible random streams, complex Gaussian draws, channel sets,
PSD square roots and beamforming-weight samplers.

Randomness is keyed, not sequential: every (seed, stream_id) pair owns a
Philox counter-based stream, and independent work units (frames, grid rows,
realizations) draw from sub-streams at disjoint counter blocks.  Results are
therefore identical for any worker count and platform.
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

    def substream(self, index):
        """Generator for independent work unit ``index`` (disjoint Philox
        counter block; each unit may draw up to 2^66 values)."""
        bg = np.random.Philox(
            key=[self.seed % 2**64, self.stream_id % 2**64],
            counter=[0, int(index) + 1, 0, 0],
        )
        return np.random.Generator(bg)


def randn_complex(rng, *shape):
    """i.i.d. zero-mean unit-variance circular complex Gaussians.

    One draw of 2 * size normals is the same Philox sequence as a draw for
    the real parts followed by one for the imaginary parts, and filling one
    complex array in place is bit-identical to (re + 1j * im) / sqrt(2).
    """
    return fill_randn_complex(rng, np.empty(shape, dtype=np.complex128), np.empty((2, *shape)))


def fill_randn_complex(rng, out, normals):
    """Fill the complex array out with the draw randn_complex(rng,
    *out.shape) would return, through the float scratch normals of shape
    (2, *out.shape); return out.  Callers that draw many equal-shaped
    blocks reuse both arrays instead of faulting fresh pages in each time."""
    rng.standard_normal(out=normals)
    out.real = normals[0]
    out.imag = normals[1]
    out /= np.sqrt(2.0)
    return out


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


def psd_sqrt(w, rank_tol=RANK_TOL):
    """Square-root factor B (N x r) with B B^H = W and r the numerical rank.

    W must be Hermitian PSD (symmetry residual <= 1e-10); eigenvalues below
    rank_tol * lambda_max are treated as zero.
    """
    w = np.asarray(w, dtype=np.complex128)
    if np.linalg.norm(w - w.conj().T) > 1e-10:
        raise ValueError("covariance is not Hermitian (residual > 1e-10)")
    lam, v = np.linalg.eigh(0.5 * (w + w.conj().T))
    lam_max = lam[-1]
    if lam_max <= 0:
        raise ValueError("covariance has no positive eigenvalue")
    keep = lam > rank_tol * lam_max
    b = v[:, keep] * np.sqrt(lam[keep])
    return b, int(keep.sum())


@dataclass(frozen=True)
class WeightSampler:
    """Draws beamforming weights with covariance W = B B^H.

    gauss_sbf:  w = B g with g ~ CN(0, I_r), so E[w w^H] = W and the
                normalized gain |h^H w|^2 / (h^H W h) is unit-mean
                exponential.
    ellip_sbf:  w = sqrt(r) B u with u uniform on the complex unit sphere
                in dimension r; the normalized gain is r * Beta(1, r-1).
    """

    scheme: str
    root: np.ndarray
    rank: int

    def __post_init__(self):
        if self.scheme not in ("gauss_sbf", "ellip_sbf"):
            raise ValueError(f"unsupported weight scheme {self.scheme!r}")

    def sample(self, rng, size, branches):
        """A tuple of branches (size, N) weight blocks, one per branch of a
        block code (two for the Alamouti-coded schemes).

        Each row draws branches * r complex normals, split across the
        branches r columns each.  Gaussian branches are thus independent
        draws.  Ellipsoid branches are drawn jointly, one uniform vector on
        the sphere in dimension branches * r: this is the construction under
        which the two-branch combined gain (|h^H w1|^2 + |h^H w2|^2)/(2 rho)
        follows the r * Beta(2, 2r-2) law of the closed-form rate (two
        independent sphere draws do not).
        """
        r = self.rank
        g = randn_complex(rng, size, branches * r)
        if self.scheme == "ellip_sbf":
            g = g / np.linalg.norm(g, axis=1, keepdims=True) * np.sqrt(branches * r)
        return tuple(g[:, k * r:(k + 1) * r] @ self.root.T for k in range(branches))

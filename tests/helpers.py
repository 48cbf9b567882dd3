"""Helpers that only the tests use: a Gray-labelling check, one-frame
encoding and exponential-vector draws, kept out of the library."""

import numpy as np

from sbfmc import linksim
from sbfmc.sampling import SeededStream


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


def transmit_frame(cfg, bits, stream):
    """Encode one frame of payload bits into the (N, T) transmit signal."""
    ops = linksim._SchemeOps(cfg)
    bits = np.asarray(bits)
    expected = linksim.frame_bit_count(cfg, ops)
    if bits.size != expected:
        raise ValueError(f"expected {expected} bits, got {bits.size}")
    return ops.link.encode(cfg, ops, bits, stream.generator())[0]


def sample_exponential_vector(r, stream_or_rng, size=None):
    """r i.i.d. unit-mean exponentials; (size, r) block when size given."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    rng = stream_or_rng.generator() if isinstance(stream_or_rng, SeededStream) else stream_or_rng
    shape = (r,) if size is None else (int(size), r)
    return rng.standard_exponential(shape)

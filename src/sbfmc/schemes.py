"""The scheme table: every scheme name the commands accept, mapped to one
Scheme record of its closed-form half (for rates, gaps and verify) and its
link half (for ber and the link simulator).  The commands and the
simulator read the record and never test the name.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import gainlaws, rates, specfun


@dataclass(frozen=True)
class RateScheme:
    """Closed-form facts of one scheme: the rate half of a Scheme.

    rate: rates.SchemeParams -> achievable rate in nats.  None marks
        bingham_phi, which is no transmission scheme but the verify check
        of the log-moment phi = E[log t] of its Gamma(r, 1/r) law (the
        equal-weight case of the Bingham-weight rate's phi terms).
    gain_law: rank -> normalized-gain law (see sbfmc.gainlaws); None for
        mc, whose law verify does not sample.
    gap_limit: rank -> high-power limit of C_mc - rate, in nats; None for
        mc, the bound itself.
    uses_rank: whether the law depends on the rank of the covariance.
    min_rank: smallest rank the law is defined for.
    """

    rate: object
    gain_law: object
    gap_limit: object
    uses_rank: bool
    min_rank: int = 1

    def row_rank(self, scheme, rank):
        """The rank a row of this entry, named scheme, runs at for the
        configured rank: rank itself when the law uses it, else 1.
        ValueError naming scheme when that is below min_rank."""
        rank = rank if self.uses_rank else 1
        if rank < self.min_rank:
            raise ValueError(f"{scheme} needs rank >= {self.min_rank}, got {rank}")
        return rank


@dataclass(frozen=True)
class LinkScheme:
    """How one scheme sends: the link half of a Scheme.  A scheme names
    either a weight law or a code, and linksim._RowState picks the frame
    steps from which.

    block_length: slots per code block; frame lengths are multiples of it
        (1, or 2 for the Alamouti pair, for a weight law).
    weights: the weight law, redrawn per block: "fixed" sends on the top
        block_length eigenvectors of W, power split by eigenvalue;
        "gauss_sbf" and "ellip_sbf" draw one weight per branch (see
        linksim._RowState.draw_weights).  None for a code.
    code: the code on the streams of the covariance root B: (B, rank)
        symbols -> (B, L, rank) blocks, slot by stream (rank symbols per
        block).  None for a weight law.
    groups: for a code, the symbol positions each ML search of a block
        decides (exact when the ML metric splits into one term per group),
        or None for one search over all rank positions.
    rank: for a code, the covariance rank it needs, or None for any.
    """

    block_length: int
    weights: object
    code: object = None
    groups: object = None
    rank: object = None


@dataclass(frozen=True)
class Scheme:
    """One entry of SCHEMES: its two halves, None where it has no such half."""
    rate: RateScheme | None
    link: LinkScheme | None


def _qostbc_code(s):
    """(B, 4) symbols -> (B, 4, 4) quasi-orthogonal blocks, slot by stream."""
    s1, s2, s3, s4 = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    c = np.empty((s.shape[0], 4, 4), dtype=np.complex128)
    c[:, 0, 0], c[:, 1, 0], c[:, 2, 0], c[:, 3, 0] = s1, s2, s3, s4
    c[:, 0, 1], c[:, 1, 1] = -np.conj(s2), np.conj(s1)
    c[:, 2, 1], c[:, 3, 1] = -np.conj(s4), np.conj(s3)
    c[:, 0, 2], c[:, 1, 2] = -np.conj(s3), -np.conj(s4)
    c[:, 2, 2], c[:, 3, 2] = np.conj(s1), np.conj(s2)
    c[:, 0, 3], c[:, 1, 3], c[:, 2, 3], c[:, 3, 3] = s4, -s3, -s2, s1
    return c


def _sm_code(s):
    """(B, d) symbols -> (B, 1, d) one-slot blocks: symbol j on stream j."""
    return s[:, None, :]


SCHEMES = {
    "mc": Scheme(RateScheme(rates.rate_mc, None, None, uses_rank=False), None),
    "bf": Scheme(None, LinkScheme(1, "fixed")),
    "gauss_sbf": Scheme(RateScheme(
        rate=rates.rate_sbf_gauss, gain_law=lambda r: gainlaws.ExponentialGain(),
        gap_limit=lambda r: specfun.EULER_GAMMA, uses_rank=False), LinkScheme(1, "gauss_sbf")),
    "ellip_sbf": Scheme(RateScheme(
        rate=rates.rate_sbf_ellip, gain_law=lambda r: gainlaws.elliptic_gain(r),
        gap_limit=lambda r: float(specfun.harmonic(r - 1)) - math.log(r), uses_rank=True),
        LinkScheme(1, "ellip_sbf")),
    "bf_alamouti": Scheme(None, LinkScheme(2, "fixed")),
    "gauss_sbf_alamouti": Scheme(RateScheme(
        rate=rates.rate_sbf_alam_gauss, gain_law=lambda r: gainlaws.ChiSquare4Gain(),
        gap_limit=lambda r: math.log(2.0) + specfun.EULER_GAMMA - 1.0, uses_rank=False),
        LinkScheme(2, "gauss_sbf")),
    "ellip_sbf_alamouti": Scheme(RateScheme(
        rate=rates.rate_sbf_alam_ellip, gain_law=lambda r: gainlaws.EllipticAlamoutiGain(r),
        gap_limit=lambda r: float(specfun.harmonic(2 * r - 1)) - math.log(r) - 1.0,
        uses_rank=True, min_rank=2), LinkScheme(2, "ellip_sbf")),
    "bingham_phi": Scheme(RateScheme(None, lambda r: gainlaws.GammaGain(r), None, uses_rank=True),
                          None),
    "precoded_sm": Scheme(None, LinkScheme(1, None, code=_sm_code)),
    # the QOSTBC ML metric splits exactly into a term in the symbol pair
    # {s1, s4} and a term in {s2, s3} (Jafarkhani, IEEE Trans. Commun., 2001)
    "precoded_qostbc": Scheme(None, LinkScheme(4, None, code=_qostbc_code,
                                               groups=((0, 3), (1, 2)), rank=4)),
}

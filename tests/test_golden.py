"""Byte-identity regression: SHA-256 digests of CLI outputs and of the link
simulator's per-user error counts at fixed seeds.

A change that keeps every random draw and every floating-point operation in
place leaves all digests unchanged.  A changed digest means the numbers
moved; update it only together with an explanation of why they had to.
"""

import hashlib
import pathlib

import numpy as np
import pytest

from sbfmc.capacity import CovarianceMatrix
from sbfmc.cli import main
from sbfmc.linksim import SchemeConfig, make_constellation, simulate_worst_user_ber
from sbfmc.sampling import SeededStream
from sbfmc.schemes import SCHEMES

from helpers import sample_channel_set

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# seed 1 at M = 8 gives a rank-2 W*, so precoded_sm searches 16^2 tuples
BER_CFG = (
    "n = 4\nm = 8\npower_db = 4, 10\n"
    "schemes = mc, bf, gauss_sbf, ellip_sbf, bf_alamouti, gauss_sbf_alamouti, "
    "ellip_sbf_alamouti, precoded_sm\n"
    "constellation = qam16\nframe_length = 72\nn_frames = 2\nseed = 1\n"
)

# case: (command, config text); later keys override earlier ones, so the
# shipped configs are reduced by appending to them
CLI_CASES = {
    "ber": ("ber", lambda: BER_CFG),
    "gaps": ("gaps", lambda: (CONFIGS / "gaps.cfg").read_text()),
    "verify": ("verify", lambda: (CONFIGS / "verify.cfg").read_text() + "n_samples = 20000\n"),
    # 2 * CHUNK + 1 draws in 2^16-row blocks, the lone last row joined to
    # the second block; the digest is that of whole-array draws
    "verify_chunked": ("verify", lambda: (CONFIGS / "verify.cfg").read_text()
                       + "n_samples = 131073\n"),
    "rates": ("rates", lambda: (CONFIGS / "rates_vs_users.cfg").read_text()
              + "n_realizations = 3\n"),
    "solve-cov": ("solve-cov", lambda: (CONFIGS / "solve_cov.cfg").read_text()),
}

CLI_DIGESTS = {
    "ber": "be37d6441a15b3a704f55fd5ca2d0ff2042ffc06353e85e735f079b525486c85",
    "gaps": "3bceb5929946e718c4b038dc4e0e193c23866c4e05707674a114811282431eae",
    "verify": "217c4980d87f79f5ad2118040ec75e13c5d162031e69cebde30318f8c2aadb55",
    "verify_chunked": "03d9af070b75d5f4532f8d0a6eeca6b022d3a1508d4dd2bf51be713f3c6d1aa7",
    "rates": "33d267c2c1b01e08e82e08771ba753894e5330931ef34261a9d33ab2a3c31f2d",
    "solve-cov": "3ec128528e77636d5253e84d20ebb028b3ec72e99244170125912bc043a09e0b",
}

RANK4_COV = CovarianceMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))

# (scheme, constellation): every link scheme on QPSK, and QOSTBC on 16-QAM
# as well
SIM_CASES = ([(scheme, "qpsk") for scheme, s in SCHEMES.items() if s.link is not None]
             + [("precoded_qostbc", "qam16")])

SIM_DIGEST = "0042db45bc1f62df439dd2cb5e8ab0fd11ca1b1426293263b2cc725646a9a6e9"

# precoded_sm on 16-QAM over a rank-3 W*: 16^3 = 4096 candidates per slot,
# the size of the benchmark's ML search; 30 and 40 dB give errors from
# many to few
RANK3_COV = CovarianceMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
RANK3_POWERS = (1e3, 1e4)

SM_RANK3_DIGEST = "7b8347b8a64eeae7addb44d4d804d7ddcdb81c48e1c4c1b55f14dd8fb617bbde"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_csv_digest(tmp_path, case):
    command, config = CLI_CASES[case]
    cfg_path = tmp_path / "golden.cfg"
    cfg_path.write_text(config())
    out_path = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert sha256(out_path.read_text()) == CLI_DIGESTS[case]


def test_simulator_error_count_digest():
    ch = sample_channel_set(4, 5, SeededStream(12, 0))
    lines = []
    for k, (scheme, con_name) in enumerate(SIM_CASES):
        cfg = SchemeConfig(scheme, RANK4_COV, make_constellation(con_name), 4.0, 144)
        res = simulate_worst_user_ber(cfg, ch, 2, SeededStream(12, 1 + k))
        errors = [int(round(b * res.bits_simulated)) for b in res.per_user_ber]
        lines.append(f"{scheme},{con_name},{res.bits_simulated},{errors}")
    assert sha256("\n".join(lines)) == SIM_DIGEST


def test_precoded_sm_rank3_error_count_digest():
    ch = sample_channel_set(4, 5, SeededStream(13, 0))
    lines = []
    for k, power in enumerate(RANK3_POWERS):
        cfg = SchemeConfig("precoded_sm", RANK3_COV, make_constellation("qam16"), power, 144)
        res = simulate_worst_user_ber(cfg, ch, 2, SeededStream(13, 1 + k))
        errors = [int(round(b * res.bits_simulated)) for b in res.per_user_ber]
        lines.append(f"{power},{res.bits_simulated},{errors}")
    assert sha256("\n".join(lines)) == SM_RANK3_DIGEST

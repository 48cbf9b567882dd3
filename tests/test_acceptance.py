"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are fixed here, not tuned: closed forms vs quadrature at 1e-8,
asymptotic gaps at 1e-4, Monte Carlo at 3 standard errors, exact identities
in rational arithmetic, and byte-identical CLI reruns.
"""

import functools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import kstest, ks_2samp, kstwobign

from sbfmc import capacity, cli, gainlaws, linksim, rates, sampling, specfun
from sbfmc.capacity import CovarianceMatrix
from sbfmc.linksim import SchemeConfig, make_constellation
from sbfmc.quadrature import adaptive_gauss_legendre
from sbfmc.rates import SchemeParams
from sbfmc.sampling import SeededStream, WeightSampler

from helpers import (BinghamUserParams, alt_binom_over_k, binom_id_shift2, binom_id_shift2_sq,
                     detect_qostbc, rate_bingham_user, sample_channel_set,
                     sample_exponential_vector)
from hypoexp import ExponentialMixture, MixtureGain, phi_exp_mixture

QPSK = make_constellation("qpsk")
BPSK = make_constellation("bpsk")


def report(num, ok, desc):
    print(f"\nCRITERION {num:>2}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_gauss_gap_limit():
    t0 = time.perf_counter()
    p = SchemeParams(rho_min=1.0, power=1e6)
    gap = rates.rate_mc(p) - rates.rate_sbf_gauss(p)
    err = abs(gap - 0.5772157)
    elapsed = time.perf_counter() - t0
    report(1, err <= 1e-4 and elapsed < 1.0,
           f"Gaussian gap at rho*P=1e6 vs Euler gamma: |err|={err:.2e}, {elapsed:.3f}s")


def test_criterion_02_elliptic_closed_form_and_gap():
    t0 = time.perf_counter()
    worst_quad = 0.0
    worst_gap = 0.0
    for r in (2, 3, 4):
        law = gainlaws.EllipticGain(r)
        for power in (0.1, 1.0, 10.0, 100.0):
            cf = rates.rate_sbf_ellip(SchemeParams(1.0, power, r))
            q = rates.quadrature_rate_oracle(law, 1.0, power)
            worst_quad = max(worst_quad, abs(cf - q))
        p = SchemeParams(1.0, 1e6, r)
        gap = rates.rate_mc(p) - rates.rate_sbf_ellip(p)
        worst_gap = max(worst_gap, abs(gap - rates.gap_limit("ellip_sbf", r)))
    r4_limit_err = abs(rates.gap_limit("ellip_sbf", 4) - 0.44704)
    elapsed = time.perf_counter() - t0
    report(2, worst_quad <= 1e-8 and worst_gap <= 1e-4 and r4_limit_err < 1e-5
           and elapsed < 5.0,
           f"elliptic closed form vs quadrature ({worst_quad:.2e}) and gap limits "
           f"({worst_gap:.2e}), r=4 limit err {r4_limit_err:.2e}, {elapsed:.2f}s")


def test_criterion_03_bingham_phi():
    t0 = time.perf_counter()
    rng = SeededStream(303, 0).generator()
    vectors = [np.array([0.3, 0.3, 0.25, 0.15])]  # repeated mean
    while len(vectors) < 10:
        r = int(rng.integers(2, 7))
        vectors.append(rng.dirichlet(np.ones(r)))
    ok = True
    details = []
    for i, w in enumerate(vectors):
        mix = ExponentialMixture.from_weights(w)
        closed = phi_exp_mixture(mix)
        z = mix.sample(SeededStream(303, 1 + i).generator(), 10**6)
        logs = np.log(z)
        se = logs.std(ddof=1) / 1000.0
        dev = abs(closed - logs.mean()) / se
        upper = gainlaws.truncation_point(MixtureGain(mix))
        integral, _ = adaptive_gauss_legendre(mix.pdf, 0.0, upper, tol=1e-10)
        norm_err = abs(integral - 1.0)
        ok &= dev <= 3.0 and norm_err <= 1e-8
        details.append(f"{dev:.2f}se/{norm_err:.1e}")
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 30.0,
           f"phi vs 1e6-sample MC and pdf normalization on 10 vectors "
           f"(worst {max(details)}), {elapsed:.1f}s")


def test_criterion_04_gauss_alamouti():
    law = gainlaws.ChiSquare4Gain()
    worst = 0.0
    for power in (0.1, 1.0, 10.0, 100.0):
        cf = rates.rate_sbf_alam_gauss(SchemeParams(1.0, power))
        q = rates.quadrature_rate_oracle(law, 1.0, power)
        worst = max(worst, abs(cf - q))
    p = SchemeParams(1.0, 1e6)
    gap = rates.rate_mc(p) - rates.rate_sbf_alam_gauss(p)
    gap_err = abs(gap - (math.log(2.0) + specfun.EULER_GAMMA - 1.0))
    lim_err = abs(rates.gap_limit("gauss_sbf_alamouti") - 0.27036)
    report(4, worst <= 1e-8 and gap_err <= 1e-4 and lim_err < 1e-5,
           f"Gaussian-Alamouti closed form vs 4te^-2t quadrature ({worst:.2e}), "
           f"gap limit err {gap_err:.2e}")


def test_criterion_05_elliptic_alamouti():
    worst_quad, worst_norm, worst_gap = 0.0, 0.0, 0.0
    for r in (2, 3, 4):
        law = gainlaws.EllipticAlamoutiGain(r)
        for power in (0.1, 1.0, 10.0, 100.0):
            cf = rates.rate_sbf_alam_ellip(SchemeParams(1.0, power, r))
            q = rates.quadrature_rate_oracle(law, 1.0, power)
            worst_quad = max(worst_quad, abs(cf - q))
        integral, _ = adaptive_gauss_legendre(law.pdf, 0.0, float(r), tol=1e-12)
        worst_norm = max(worst_norm, abs(integral - 1.0))
        p = SchemeParams(1.0, 1e6, r)
        gap = rates.rate_mc(p) - rates.rate_sbf_alam_ellip(p)
        worst_gap = max(worst_gap, abs(gap - rates.gap_limit("ellip_sbf_alamouti", r)))
    r2_err = abs(rates.gap_limit("ellip_sbf_alamouti", 2) - 0.14019)
    report(5, worst_quad <= 1e-8 and worst_norm <= 1e-10 and worst_gap <= 1e-4
           and r2_err < 1e-5,
           f"elliptic-Alamouti closed form ({worst_quad:.2e}), density norm "
           f"({worst_norm:.2e}), gap limits ({worst_gap:.2e})")


def test_criterion_06_exact_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 41):
        ok &= alt_binom_over_k(n) == -specfun.harmonic(n)
    for n in range(41):
        ok &= binom_id_shift2(n) == Fraction(1, (n + 2) * (n + 1))
        ok &= binom_id_shift2_sq(n) == (specfun.harmonic(n + 2) - 1) / (
            (n + 2) * (n + 1)
        )
    elapsed = time.perf_counter() - t0
    report(6, ok and elapsed < 1.0,
           f"binomial/harmonic identities exact for n <= 40, {elapsed:.2f}s")


def test_criterion_07_sampler_fidelity():
    n = 10**5
    crit = kstwobign.ppf(1 - 1e-3) / math.sqrt(n)
    crit2 = kstwobign.ppf(1 - 1e-3) * math.sqrt(2.0 / n)
    laws = {
        "exponential": gainlaws.ExponentialGain(),
        "elliptic(3)": gainlaws.EllipticGain(3),
        "chi_square_4": gainlaws.ChiSquare4Gain(),
        "elliptic_alamouti(3)": gainlaws.EllipticAlamoutiGain(3),
        "mixture": MixtureGain(ExponentialMixture.from_weights([0.5, 0.3, 0.2])),
    }
    stats = {}
    for i, (name, law) in enumerate(laws.items()):
        draws = law.sample(SeededStream(707, i).generator(), n)
        stats[name] = kstest(draws, lambda x: law.cdf(x)).statistic
    ok = all(s <= crit for s in stats.values())

    # weight-sampler-induced gains vs direct law draws (two-sample KS)
    rng = SeededStream(707, 50).generator()
    b = sampling.randn_complex(rng, 4, 3)
    w = b @ b.conj().T
    w /= np.trace(w).real
    h = sampling.randn_complex(rng, 4)
    rho = float(np.real(h.conj() @ w @ h))
    pairs = [
        ("gauss_sbf", gainlaws.ExponentialGain(), False),
        ("ellip_sbf", gainlaws.EllipticGain(3), False),
        ("gauss_sbf", gainlaws.ChiSquare4Gain(), True),
        ("ellip_sbf", gainlaws.EllipticAlamoutiGain(3), True),
    ]
    two_sample = []
    for i, (scheme, law, is_pair) in enumerate(pairs):
        ws = WeightSampler.from_covariance(scheme, w)
        gen = SeededStream(707, 100 + i).generator()
        if is_pair:
            w1, w2 = ws.sample_pair(gen, n)
            induced = (np.abs(w1 @ h.conj()) ** 2 + np.abs(w2 @ h.conj()) ** 2) / (2 * rho)
        else:
            induced = np.abs(ws.sample(gen, n) @ h.conj()) ** 2 / rho
        direct = law.sample(SeededStream(707, 200 + i).generator(), n)
        two_sample.append(ks_2samp(induced, direct).statistic)
    ok &= all(s <= crit2 for s in two_sample)
    report(7, ok,
           f"KS fidelity for 5 gain laws (max {max(stats.values()):.2e} vs crit "
           f"{crit:.2e}) and weight-induced equivalence (max {max(two_sample):.2e})")


def test_criterion_08_monte_carlo_rate_closure():
    t0 = time.perf_counter()
    n = 10**6
    w = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    h = np.array([math.sqrt(2.0), 0, 0, 0], dtype=complex)  # rho = h^H W h = 1
    rho, power, rank = 1.0, 10.0, 3
    devs = {}

    def mc_dev(vals, closed):
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        return abs(vals.mean() - closed) / se

    gauss = WeightSampler.from_covariance("gauss_sbf", w)
    ellip = WeightSampler.from_covariance("ellip_sbf", w)
    draws = gauss.sample(SeededStream(808, 0).generator(), n)
    devs["gauss_sbf"] = mc_dev(
        np.log1p(power * np.abs(draws @ h.conj()) ** 2),
        rates.rate_sbf_gauss(SchemeParams(rho, power, rank)),
    )
    draws = ellip.sample(SeededStream(808, 1).generator(), n)
    devs["ellip_sbf"] = mc_dev(
        np.log1p(power * np.abs(draws @ h.conj()) ** 2),
        rates.rate_sbf_ellip(SchemeParams(rho, power, rank)),
    )
    w1, w2 = gauss.sample_pair(SeededStream(808, 2).generator(), n)
    xi = 0.5 * (np.abs(w1 @ h.conj()) ** 2 + np.abs(w2 @ h.conj()) ** 2)
    devs["gauss_sbf_alamouti"] = mc_dev(
        np.log1p(power * xi), rates.rate_sbf_alam_gauss(SchemeParams(rho, power, rank))
    )
    w1, w2 = ellip.sample_pair(SeededStream(808, 3).generator(), n)
    xi = 0.5 * (np.abs(w1 @ h.conj()) ** 2 + np.abs(w2 @ h.conj()) ** 2)
    devs["ellip_sbf_alamouti"] = mc_dev(
        np.log1p(power * xi), rates.rate_sbf_alam_ellip(SchemeParams(rho, power, rank))
    )
    # Bingham rate through the exponential-vector representation
    lam = np.array([0.5, 0.3, 0.2])
    mu = np.array([1.0, 2.0, 3.0])
    bp = BinghamUserParams(rho, tuple(mu), tuple(lam))
    zeta = sample_exponential_vector(rank, SeededStream(808, 4), n)
    vals = (
        math.log1p(rho * power)
        + np.log(zeta @ (mu / mu.sum()))
        - np.log(zeta @ lam)
    )
    devs["bingham"] = mc_dev(vals, rate_bingham_user(bp, power))
    elapsed = time.perf_counter() - t0
    ok = all(d <= 3.0 for d in devs.values()) and elapsed < 60.0
    report(8, ok,
           "MC rate closure at 1e6 samples (rho=1, P=10, r=3): "
           + ", ".join(f"{k}={v:.2f}se" for k, v in devs.items())
           + f", {elapsed:.1f}s")


def test_criterion_09_capacity_solver():
    ch1 = sample_channel_set(4, 1, SeededStream(909, 0))
    sol1 = capacity.solve_mc_covariance(ch1)
    m1_err = abs(sol1.objective - np.linalg.norm(ch1.channels[0]) ** 2)

    # frozen instance; reference objective from a one-off CVXOPT solve
    ch = sample_channel_set(4, 8, SeededStream(20250811, 0))
    sol = capacity.solve_mc_covariance(ch, tol=1e-6)
    golden_err = abs(sol.objective - 0.9461726005089293)
    report(9, m1_err <= 1e-10 and golden_err <= 1e-5,
           f"solver: M=1 exact ({m1_err:.2e}), golden N=4/M=8 instance "
           f"({golden_err:.2e}, certified gap {sol.gap:.1e})")


@functools.lru_cache(maxsize=None)
def predicted_qpsk_ber(scheme, rank, snr):
    """Uncoded Gray-QPSK BER E_G[Q(sqrt(snr G))] of an SBF user at SNR
    rho * P = snr, with G the scheme's normalized gain law at the rank of W*.

    Elliptic-Alamouti at rank 1 is a point mass at 1 (r * Beta(2, 2r-2)
    degenerates; tests/test_sampling.py checks the pair sampler does too).
    """
    if scheme == "ellip_sbf_alamouti" and rank == 1:
        law = gainlaws.PointMassGain(1.0)
    else:
        law = rates.gain_law_for_scheme(scheme, rank)

    def q(t):
        return 0.5 * erfc(np.sqrt(snr * np.asarray(t) / 2.0))

    if isinstance(law, gainlaws.PointMassGain):
        return float(q(law.location))
    value, _ = adaptive_gauss_legendre(
        lambda t: q(t) * law.pdf(t), 0.0, gainlaws.truncation_point(law), tol=1e-12
    )
    return value


def test_criterion_10_link_simulator():
    t0 = time.perf_counter()
    # (a) single-user beamformed QPSK vs coherent analytic BER
    h = np.zeros((1, 4), dtype=complex)
    h[0, 0] = 1.0
    ch1 = sampling.ChannelSet(h)
    w = np.zeros((4, 4), dtype=complex)
    w[0, 0] = 1.0
    part_a = True
    a_devs = []
    for p_db in (0.0, 4.0, 8.0):
        power = 10 ** (p_db / 10)
        cfg = SchemeConfig("bf", CovarianceMatrix(w), QPSK, power, 1440)
        res = linksim.simulate_worst_user_ber(cfg, ch1, 40, SeededStream(1010, 1))
        analytic = 0.5 * erfc(math.sqrt(power) / math.sqrt(2.0))
        se = math.sqrt(analytic * (1 - analytic) / res.bits_simulated)
        a_devs.append(abs(res.worst_user_ber - analytic) / se)
        part_a &= a_devs[-1] <= 3.0

    # (b) pair-decoupled ML vs an argmin over all 2^4 noiseless BPSK blocks,
    # on 1e4 noisy ones
    rng = SeededStream(1010, 2).generator()
    g = sampling.randn_complex(rng, 4)
    tuples = rng.integers(0, 2, (10**4, 4))
    blocks = linksim._qostbc_encode_batch(BPSK.points[tuples])
    y = np.einsum("j,bjt->bt", g.conj(), blocks) + sampling.randn_complex(rng, 10**4, 4)
    all_tuples = linksim._all_tuples(4, BPSK.size)
    cand = np.einsum("j,bjt->bt", g.conj(),
                     linksim._qostbc_encode_batch(BPSK.points[all_tuples]))
    dist = (np.abs(y[:, None, :] - cand[None, :, :]) ** 2).sum(axis=2)
    det_full = all_tuples[np.argmin(dist, axis=1)]
    mismatches = int(np.sum(detect_qostbc(y, g, BPSK, 1.0) != det_full))
    part_b = mismatches == 0

    # (c) Fig.2-style qualitative checks for the uncoded analog, over 20
    # channel realizations per user count.  Each realization runs at a
    # worst-user SNR rho_min * P of 6, 10 and 14 dB, i.e. P = 10^(p/10) / rho_min.
    snrs_db = (6.0, 10.0, 14.0)
    sbf_schemes = ("gauss_sbf", "ellip_sbf", "gauss_sbf_alamouti", "ellip_sbf_alamouti")
    n_real = 20
    keys = [(m, p, s) for m in (16, 24) for p in snrs_db for s in sbf_schemes]
    residuals = {key: [] for key in keys}
    worst_ber = {key: [] for key in keys}
    ranks = {16: Counter(), 24: Counter()}
    rho_mins = {16: [], 24: []}
    for m in (16, 24):
        for j in range(n_real):
            chm = sample_channel_set(4, m, SeededStream(1010, 100 * m + j))
            sol = capacity.solve_mc_covariance(chm, tol=1e-4)
            rho, rho_min = capacity.rho_values(sol.covariance, chm)
            i_min = int(np.argmin(rho))
            _, rank = sampling.psd_sqrt(sol.covariance.entries)
            ranks[m][rank] += 1
            rho_mins[m].append(rho_min)
            for pi, snr_db in enumerate(snrs_db):
                snr = 10 ** (snr_db / 10)
                for k, scheme in enumerate(sbf_schemes):
                    cfg = SchemeConfig(scheme, sol.covariance, QPSK, snr / rho_min, 1440)
                    res = linksim.simulate_worst_user_ber(
                        cfg, chm, 3,
                        SeededStream(1010, 10_000 + 1000 * m + 100 * j + 10 * pi + k),
                    )
                    residuals[(m, snr_db, scheme)].append(
                        res.per_user_ber[i_min] - predicted_qpsk_ber(scheme, rank, snr)
                    )
                    worst_ber[(m, snr_db, scheme)].append(res.worst_user_ber)

    def z_score(a, b=None):
        """|mean(a) - mean(b)| in combined standard errors (b absent: vs 0)."""
        a = np.asarray(a)
        if b is None:
            return abs(a.mean()) / math.sqrt(a.var(ddof=1) / a.size)
        b = np.asarray(b)
        return abs(a.mean() - b.mean()) / math.sqrt(
            a.var(ddof=1) / a.size + b.var(ddof=1) / b.size
        )

    def worst_z(zs):
        (scheme, snr_db), z = max(zs.items(), key=lambda item: item[1])
        return f"{z:.2f} ({scheme}@{snr_db:.0f}dB)"

    # (c1) M-insensitivity as the method states it: an SBF user's BER depends
    # on M only through rho_min * P and the rank r of W*, which fixes the
    # gain law G.  The BER at one fixed P is not M-insensitive: rho_min falls
    # with M, the rank composition of W* shifts, and the max over users grows
    # with the number of users near rho_min.  So the rho_min user's BER at a
    # fixed worst-user SNR, minus its prediction E_G[Q(sqrt(rho_min P G))] at
    # that realization's rank, must have the same mean at M = 16 and M = 24
    # within 3 combined standard errors.  A simulator-vs-law mismatch that is
    # the same at both M cancels here; criteria 7 and 8 police the laws.
    c1_z = {
        (s, p): z_score(residuals[(16, p, s)], residuals[(24, p, s)])
        for s in sbf_schemes for p in snrs_db
    }
    part_c1 = all(z <= 3.0 for z in c1_z.values())
    populations = "; ".join(
        f"M={m}: ranks {' '.join(f'r{r}:{n}' for r, n in sorted(ranks[m].items()))}, "
        f"mean rho_min {np.mean(rho_mins[m]):.3f}, worst residual "
        + worst_z({(s, p): z_score(residuals[(m, p, s)])
                   for s in sbf_schemes for p in snrs_db})
        for m in (16, 24)
    )
    # (c2) elliptic-Alamouti has the lowest worst-user BER at 14 dB
    wins = sum(
        worst_ber[(m, 14.0, "ellip_sbf_alamouti")][j]
        <= min(worst_ber[(m, 14.0, s)][j] for s in sbf_schemes)
        for m in (16, 24)
        for j in range(n_real)
    )
    part_c2 = wins >= 0.8 * 2 * n_real
    elapsed = time.perf_counter() - t0
    report(10, part_a and part_b and part_c1 and part_c2 and elapsed < 600.0,
           f"link sim: analytic QPSK (max {max(a_devs):.2f}se), pair-vs-full "
           f"mismatches {mismatches}, M-insensitivity at equal worst-user SNR "
           f"{part_c1} (worst z {worst_z(c1_z)} vs 3 SE; {populations}), "
           f"elliptic-Alamouti best in {wins}/{2 * n_real}, {elapsed:.0f}s")


def test_criterion_11_cli_determinism(tmp_path, monkeypatch):
    verify_cfg = tmp_path / "verify.cfg"
    verify_cfg.write_text(
        "schemes = gauss_sbf, ellip_sbf_alamouti\npower_db = 0, 10\n"
        "rank = 2\nn_samples = 20000\nseed = 11\n"
    )
    ber_cfg = tmp_path / "ber.cfg"
    ber_cfg.write_text(
        "n = 4\nm = 3\npower_db = 6\nschemes = bf, gauss_sbf\n"
        "frame_length = 288\nn_frames = 4\nseed = 11\n"
    )
    outputs = {}
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "8")):
        monkeypatch.setenv("SBF_THREADS", workers)
        for cmd, cfgp in (("verify", verify_cfg), ("ber", ber_cfg)):
            out = tmp_path / f"{cmd}_{tag}.csv"
            code = cli.main([cmd, "--config", str(cfgp), "--out", str(out)])
            assert code == 0
            outputs[(cmd, tag)] = out.read_bytes()
    ok = all(
        outputs[(cmd, "a")] == outputs[(cmd, "b")] == outputs[(cmd, "c")]
        for cmd in ("verify", "ber")
    )
    report(11, ok, "cmd_verify and cmd_ber byte-identical across reruns and "
           "1 vs 8 workers")

import csv
import math
import pathlib

import numpy as np
import pytest
from scipy.integrate import quad

from sbfmc import gainlaws, rates, specfun
from sbfmc.rates import SchemeParams

from helpers import BinghamUserParams, rate_bingham_user
from hypoexp import ExponentialMixture, phi_exp_mixture

RNG = lambda tag: np.random.Generator(np.random.Philox(key=[815001, tag]))

GRID_RHO = (0.5, 1.0, 2.0)
GRID_P = (0.1, 1.0, 10.0, 100.0)
GRID_R = (1, 2, 3, 4)

RATE_FNS = {
    "gauss_sbf": rates.rate_sbf_gauss,
    "ellip_sbf": rates.rate_sbf_ellip,
    "gauss_sbf_alamouti": rates.rate_sbf_alam_gauss,
    "ellip_sbf_alamouti": rates.rate_sbf_alam_ellip,
}


def scheme_grid():
    for scheme in RATE_FNS:
        for r in GRID_R:
            if scheme == "ellip_sbf_alamouti" and r < 2:
                continue
            if scheme.startswith("gauss") and r != 1:
                continue
            yield scheme, r


class TestClosedForms:
    def test_rate_mc(self):
        assert abs(rates.rate_mc(SchemeParams(1, 10)) - math.log(11)) < 1e-15
        assert rates.rate_mc(SchemeParams(0.5, 0)) == 0.0
        assert abs(rates.rate_mc(SchemeParams(2, 100)) - math.log(201)) < 1e-15

    def test_gauss_sbf_value(self):
        # e^{0.1} E1(0.1), cross-checked by quadrature over the exponential law
        p = SchemeParams(1.0, 10.0)
        assert abs(rates.rate_sbf_gauss(p) - 2.0146425447084515) < 1e-12
        ref, _ = quad(lambda t: np.log1p(10 * t) * np.exp(-t), 0, np.inf, limit=200)
        assert abs(rates.rate_sbf_gauss(p) - ref) < 1e-9

    def test_gauss_sbf_zero_power(self):
        assert rates.rate_sbf_gauss(SchemeParams(1.0, 0.0)) == 0.0
        assert rates.rate_sbf_gauss(SchemeParams(1.0, 1e-9)) < 1e-8

    def test_ellip_rank_one_collapses(self):
        for rho, power in [(1, 10), (0.5, 3), (2, 100)]:
            p = SchemeParams(rho, power, 1)
            assert rates.rate_sbf_ellip(p) == rates.rate_mc(p)

    def test_ellip_r2_value(self):
        p = SchemeParams(1.0, 10.0, 2)
        ref, _ = quad(lambda t: 0.5 * np.log1p(10 * t), 0, 2)
        assert abs(rates.rate_sbf_ellip(p) - ref) < 1e-10

    def test_alam_gauss_value(self):
        p = SchemeParams(1.0, 10.0)
        ref, _ = quad(lambda t: 4 * np.log1p(10 * t) * t * np.exp(-2 * t), 0, np.inf, limit=200)
        assert abs(rates.rate_sbf_alam_gauss(p) - ref) < 1e-9
        assert rates.rate_sbf_alam_gauss(SchemeParams(1.0, 0.0)) == 0.0

    def test_alam_ellip_value(self):
        p = SchemeParams(1.0, 10.0, 2)
        ref, _ = quad(lambda t: 3 * np.log1p(10 * t) * (t / 2) * (1 - t / 2), 0, 2)
        assert abs(rates.rate_sbf_alam_ellip(p) - ref) < 1e-10

    def test_alam_ellip_needs_rank_two(self):
        with pytest.raises(ValueError):
            rates.rate_sbf_alam_ellip(SchemeParams(1.0, 10.0, 1))


# 798 points: ranks 2-40, 60, 100 and 200 at rho = 1, -30 to 60 dB; the
# paper's alternating binomial sums overflow or cancel at many of them
ELLIPTIC_TABLE = pathlib.Path(__file__).with_name("elliptic_mpmath.csv")
ELLIPTIC_RANKS = tuple(range(2, 41)) + (60, 100, 200)
ELLIPTIC_POWERS_DB = tuple(range(-30, 61, 5))


def elliptic_table():
    with ELLIPTIC_TABLE.open() as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return [(int(r["rank"]), int(r["power_db"]), float(r["ellip_sbf"]),
             float(r["ellip_sbf_alamouti"])) for r in rows]


def mpmath_elliptic_rates(mp, rank, power_db):
    """Both elliptic rates at rho = 1, rounded from 40 digits.  Each uses
    T(n) = sum_{k>=1} u^k / (n + k) = u^-n (log(1 + beta) - sum_{j<=n} u^j / j),
    u = beta / (1 + beta), with guard digits for the cancellation."""
    with mp.workdps(60):  # the exact product of rank and the float power
        beta = mp.mpf(rank) * mp.mpf(10.0 ** (power_db / 10.0))

    def tail(n):
        with mp.workdps(60 + int(n * mp.log10(1 + 1 / beta))):
            u = beta / (1 + beta)
            return u ** -n * (mp.log1p(beta) - mp.fsum(u ** j / j for j in range(1, n + 1)))

    with mp.workdps(40):
        return (float(tail(rank - 1)),
                float((2 * rank - 1) * tail(2 * rank - 2) - (2 * rank - 2) * tail(2 * rank - 1)))


class TestEllipticAgainstMpmath:
    def test_table_within_1e12(self):
        table = elliptic_table()
        assert [(r, db) for r, db, _, _ in table] == [
            (r, db) for r in ELLIPTIC_RANKS for db in ELLIPTIC_POWERS_DB]
        for rank, power_db, ellip, alam in table:
            p = SchemeParams(1.0, 10.0 ** (power_db / 10.0), rank)
            assert abs(rates.rate_sbf_ellip(p) / ellip - 1.0) <= 1e-12, (rank, power_db)
            assert abs(rates.rate_sbf_alam_ellip(p) / alam - 1.0) <= 1e-12, (rank, power_db)

    def test_table_recomputed_with_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for rank, power_db, ellip, alam in elliptic_table():
            assert mpmath_elliptic_rates(mp, rank, power_db) == (ellip, alam), (rank, power_db)
        # the finite form is u Phi(u, 1, n + 1), Phi the Lerch transcendent
        for rank, power_db in [(2, -30), (40, 60)]:
            with mp.workdps(60):
                beta = mp.mpf(rank) * mp.mpf(10.0 ** (power_db / 10.0))
                u = beta / (1 + beta)
                ellip = float(u * mp.lerchphi(u, 1, rank))
            assert ellip == mpmath_elliptic_rates(mp, rank, power_db)[0]


class TestQuadratureOracle:
    def test_closed_forms_match_oracle_on_grid(self):
        # closed form vs quadrature <= 1e-8 absolute across the whole grid
        for scheme, r in scheme_grid():
            law = rates.gain_law_for_scheme(scheme, r)
            for rho in GRID_RHO:
                for power in GRID_P:
                    p = SchemeParams(rho, power, r)
                    cf = RATE_FNS[scheme](p)
                    q = rates.quadrature_rate_oracle(law, rho, power)
                    assert abs(cf - q) <= 1e-8, (scheme, r, rho, power)

    def test_point_mass(self):
        law = gainlaws.PointMassGain(1.0)
        assert rates.quadrature_rate_oracle(law, 2.0, 5.0) == math.log1p(10.0)

    def test_monte_carlo_triangle(self):
        # third oracle: sampled gains within 3 standard errors at 1e6
        # draws, over the full (scheme, r, rho, P) grid; gain draws are
        # scale-free so each law is sampled once and reused
        for scheme, r in scheme_grid():
            law = rates.gain_law_for_scheme(scheme, r)
            draws = law.sample(RNG(hash((scheme, r)) % 2**32), 10**6)
            for rho in GRID_RHO:
                for power in GRID_P:
                    vals = np.log1p(rho * power * draws)
                    se = vals.std(ddof=1) / math.sqrt(vals.size)
                    cf = RATE_FNS[scheme](SchemeParams(rho, power, r))
                    # the rank-1 elliptic law is a point mass: zero variance
                    tol = 3 * se if se > 1e-13 else 1e-12
                    assert abs(vals.mean() - cf) <= tol, (scheme, r, rho, power)


class TestGapLimits:
    def test_values(self):
        assert abs(rates.gap_limit("gauss_sbf") - 0.5772156649015329) < 1e-15
        assert abs(rates.gap_limit("gauss_sbf_alamouti") - 0.2703628454614781) < 1e-14
        assert abs(rates.gap_limit("ellip_sbf_alamouti", 2) - 0.1401861527733881) < 1e-14
        assert abs(rates.gap_limit("ellip_sbf", 4) - (11 / 6 - math.log(4))) < 1e-14

    def test_bad_combos(self):
        with pytest.raises(ValueError):
            rates.gap_limit("ellip_sbf_alamouti", 1)
        with pytest.raises(ValueError):
            rates.gap_limit("nope", 2)

    def test_gap_convergence_is_monotone(self):
        for scheme, r in scheme_grid():
            deltas = []
            for power in (1e2, 1e3, 1e4, 1e5, 1e6):
                p = SchemeParams(1.0, power, r)
                gap = rates.rate_mc(p) - RATE_FNS[scheme](p)
                deltas.append(abs(gap - rates.gap_limit(scheme, r)))
            if scheme == "ellip_sbf" and r == 1:
                # degenerate collapse onto the bound: gap identically zero
                assert all(d == 0.0 for d in deltas)
                continue
            assert all(a > b for a, b in zip(deltas, deltas[1:])), (scheme, r)

    def test_gauss_gap_at_high_power(self):
        p = SchemeParams(1.0, 1e6)
        gap = rates.rate_mc(p) - rates.rate_sbf_gauss(p)
        assert abs(gap - specfun.EULER_GAMMA) < 2e-5


class TestMonotonicityAndOrdering:
    def test_increasing_in_power_and_rho(self):
        for scheme, r in scheme_grid():
            fn = RATE_FNS[scheme]
            vals = [fn(SchemeParams(1.0, power, r)) for power in GRID_P]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            vals = [fn(SchemeParams(rho, 10.0, r)) for rho in GRID_RHO]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_alamouti_dominates_plain_gauss(self):
        for rho in GRID_RHO:
            for power in GRID_P:
                p = SchemeParams(rho, power)
                assert rates.rate_sbf_alam_gauss(p) >= rates.rate_sbf_gauss(p)

    def test_mc_bound_dominates_every_scheme(self):
        for scheme, r in scheme_grid():
            for rho in GRID_RHO:
                for power in GRID_P:
                    p = SchemeParams(rho, power, r)
                    assert rates.rate_mc(p) >= RATE_FNS[scheme](p)


class TestPhi:
    def test_single_component(self):
        assert abs(phi_exp_mixture([1.0]) + specfun.EULER_GAMMA) < 1e-14
        for d in (0.3, 2.5):
            assert abs(phi_exp_mixture([d]) - (math.log(d) - specfun.EULER_GAMMA)) < 1e-14

    def test_two_distinct_means(self):
        d = [2 / 3, 1 / 3]
        expected = sum(
            (dk / (dk - dn)) * (math.log(dk) - specfun.EULER_GAMMA)
            for dk, dn in [(d[0], d[1]), (d[1], d[0])]
        )
        assert abs(phi_exp_mixture(d) - expected) < 1e-13

    def test_against_monte_carlo(self):
        for tag, w in enumerate(([0.4, 0.3, 0.3], [0.25] * 4, [0.6, 0.25, 0.15])):
            mix = ExponentialMixture.from_weights(w)
            z = mix.sample(RNG(100 + tag), 4 * 10**5)
            logs = np.log(z)
            se = logs.std(ddof=1) / math.sqrt(logs.size)
            assert abs(phi_exp_mixture(mix) - logs.mean()) <= 3 * se

    def test_against_log_moment_quadrature(self):
        mix = ExponentialMixture.from_weights([0.5, 0.2, 0.2, 0.1])
        ref, _ = quad(lambda z: np.log(z) * mix.pdf(z), 0, np.inf, limit=400)
        assert abs(phi_exp_mixture(mix) - ref) < 1e-9


class TestBingham:
    def test_cancellation_when_mu_proportional_to_lambda(self):
        lam = (0.7, 0.3)
        for scale in (1.0, 3.7):
            bp = BinghamUserParams(1.0, tuple(scale * v for v in lam), lam)
            assert abs(rate_bingham_user(bp, 10.0) - math.log1p(10.0)) <= 1e-12

    def test_one_hot_mu_uniform_lambda(self):
        r = 4
        bp = BinghamUserParams(2.0, (1.0, 0, 0, 0), (0.25,) * r)
        phi_unif = phi_exp_mixture([0.25] * r)
        expected = math.log1p(2.0 * 5.0) - specfun.EULER_GAMMA - phi_unif
        assert abs(rate_bingham_user(bp, 5.0) - expected) < 1e-12

    def test_r2_against_monte_carlo(self):
        bp = BinghamUserParams(1.0, (1.0, 1.0), (0.7, 0.3))
        rng = RNG(55)
        zeta = rng.standard_exponential((10**6, 2))
        term_mu = np.log(0.5 * zeta.sum(axis=1))
        term_lam = np.log(zeta @ np.array([0.7, 0.3]))
        mc = math.log1p(10.0) + term_mu.mean() - term_lam.mean()
        se = math.sqrt(term_mu.var() / 1e6 + term_lam.var() / 1e6)
        assert abs(rate_bingham_user(bp, 10.0) - mc) <= 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            BinghamUserParams(1.0, (0.0, 0.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            BinghamUserParams(1.0, (1.0, 1.0), (0.6, 0.6))


def test_elliptic_alamouti_density_normalization():
    # (2r-1)(2r-2)/r int_0^r (t/r)(1 - t/r)^(2r-3) dt = 1
    for r in (2, 3, 4, 6):
        law = gainlaws.EllipticAlamoutiGain(r)
        val, _ = quad(law.pdf, 0, r)
        assert abs(val - 1.0) < 1e-10


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(0.0, 1.0)
    with pytest.raises(ValueError):
        SchemeParams(1.0, -1.0)
    with pytest.raises(ValueError):
        SchemeParams(1.0, 1.0, 0)

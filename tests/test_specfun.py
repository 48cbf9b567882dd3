import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from sbfmc import specfun

from helpers import (alt_binom_over_k, binom_id_shift2, binom_id_shift2_sq, exp_integral_e1,
                     theta, upper_incomplete_gamma_nonpos)


def exp_e1_scaled_at(xs):
    """specfun.exp_e1_scaled at each entry of xs."""
    return np.array([specfun.exp_e1_scaled(float(x)) for x in xs])


def test_euler_gamma_value():
    # cross-check via -int_0^inf log(x) e^-x dx
    ref, _ = quad(lambda x: -np.log(x) * np.exp(-x), 0, np.inf)
    assert abs(specfun.EULER_GAMMA - 0.5772156649015329) < 1e-15
    assert abs(specfun.EULER_GAMMA - ref) < 1e-9


class TestExpIntegral:
    def test_value_at_one(self):
        assert abs(exp_integral_e1(1.0) - 0.21938393439552026) < 1e-14

    def test_against_defining_integral(self):
        # relative error <= 1e-10 over a log grid of the argument;
        # substituting u = x t gives quadpack a well-conditioned integrand
        xs = np.logspace(-6, np.log10(50.0), 40)
        for x in xs:
            ref, _ = quad(lambda u: np.exp(-u) / u, x, np.inf, limit=400, epsabs=0, epsrel=1e-13)
            assert abs(exp_integral_e1(x) - ref) <= 1e-10 * ref

    def test_series_identity_small_x(self):
        # series truncated where the tail is < 1e-14
        x = 0.01
        total = -specfun.EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 30):
            term *= -x / k
            total -= term / k
        assert abs(exp_integral_e1(x) - total) <= 1e-12

    def test_large_argument(self):
        assert abs(exp_integral_e1(10.0) - 4.156968929685325e-06) < 1e-11

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exp_integral_e1(0.0)
        with pytest.raises(ValueError):
            exp_integral_e1(-1.0)

    def test_array_matches_scalar(self):
        xs = np.array([0.01, 0.5, 1.0, 3.0, 40.0])
        out = exp_integral_e1(xs)
        for x, v in zip(xs, out):
            assert v == exp_integral_e1(float(x))

    def test_against_scipy_exp1(self):
        # an independent implementation; the largest deviation seen is 8.5e-15
        xs = np.logspace(-6, np.log10(700.0), 3000)
        ref = exp1(xs)
        assert np.max(np.abs(exp_integral_e1(xs) / ref - 1.0)) <= 2e-14
        assert np.max(np.abs(exp_e1_scaled_at(xs) / (ref * np.exp(xs)) - 1.0)) <= 2e-14

    def test_scaled_against_asymptotic_series(self):
        # e^x E1(x) ~ sum_k (-1)^k k! / x^(k+1); ten terms leave a
        # truncation error below 1e-21 relative for x >= 700
        xs = np.logspace(np.log10(700.0), 12, 2000)
        ref = sum((-1) ** k * math.factorial(k) / xs ** (k + 1) for k in range(10))
        assert np.max(np.abs(exp_e1_scaled_at(xs) / ref - 1.0)) <= 2e-15

    def test_scaled_no_overflow(self):
        # e^x E1(x) ~ 1/x for huge x; plain e^x would overflow past 709
        for x in (800.0, 1e6, 1e12):
            v = specfun.exp_e1_scaled(x)
            assert 0 < v < 1.0 / x * 1.01
        x = 0.3
        assert abs(
            specfun.exp_e1_scaled(x) - math.exp(x) * exp_integral_e1(x)
        ) < 1e-15


class TestIncompleteGamma:
    def test_order_zero_same_code_path(self):
        for x in (0.1, 1.0, 7.0):
            assert upper_incomplete_gamma_nonpos(0, x) == exp_integral_e1(x)

    def test_order_minus_one_identity(self):
        # Gamma(0,x) = -Gamma(-1,x) + exp(-x)/x
        for x in (0.5, 2.0, 10.0):
            g0 = upper_incomplete_gamma_nonpos(0, x)
            gm1 = upper_incomplete_gamma_nonpos(-1, x)
            assert abs(g0 + gm1 - math.exp(-x) / x) <= 1e-12

    def test_order_minus_one_value(self):
        assert abs(
            upper_incomplete_gamma_nonpos(-1, 1.0) - 0.14849550677592205
        ) < 1e-12

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma_nonpos(0, -1.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma_nonpos(1, 1.0)


class TestExactIdentities:
    def test_harmonic_values(self):
        assert specfun.harmonic(0) == 0
        assert specfun.harmonic(3) == Fraction(11, 6)
        assert specfun.harmonic(10) == Fraction(7381, 2520)

    def test_alt_binom_values(self):
        assert alt_binom_over_k(1) == -1
        assert alt_binom_over_k(4) == Fraction(-25, 12)

    def test_alt_binom_equals_minus_harmonic(self):
        for n in range(1, 41):
            assert alt_binom_over_k(n) + specfun.harmonic(n) == 0

    def test_shift2_values(self):
        assert binom_id_shift2(0) == Fraction(1, 2)
        assert binom_id_shift2(2) == Fraction(1, 12)
        assert binom_id_shift2(7) == Fraction(1, 72)

    def test_shift2_closed_form(self):
        for n in range(41):
            assert binom_id_shift2(n) == Fraction(1, (n + 2) * (n + 1))

    def test_shift2_sq_values(self):
        assert binom_id_shift2_sq(0) == Fraction(1, 4)
        assert binom_id_shift2_sq(1) == Fraction(5, 36)

    def test_shift2_sq_closed_form(self):
        for n in range(41):
            expected = (specfun.harmonic(n + 2) - 1) / ((n + 2) * (n + 1))
            assert binom_id_shift2_sq(n) == expected


class TestTheta:
    def test_trivial_point(self):
        assert abs(theta(1, 0) + specfun.EULER_GAMMA) < 1e-15

    def test_frozen_values(self):
        assert abs(theta(2, 1) - 4.46372606263365) < 1e-10
        assert abs(theta(0.5, 2) - 0.05740928863463046) < 1e-12

    def test_against_quadrature(self):
        for d in (0.1, 1.0, 5.0):
            for n in range(7):
                ref, _ = quad(
                    lambda z: z**n * np.exp(-z / d) * np.log(z), 0, np.inf, limit=400
                )
                assert abs(theta(d, n) - ref) <= 1e-8 * max(abs(ref), 1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            theta(0.0, 1)
        with pytest.raises(ValueError):
            theta(1.0, -1)

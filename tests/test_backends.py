"""The compiled kernels and the numpy fallback must agree exactly."""

import numpy as np
import pytest

from sbfmc import _kernels_py

compiled = pytest.importorskip("sbfmc._kernels")


def test_e1_bitwise_agreement():
    xs = np.logspace(-6, np.log10(600.0), 500)
    a = compiled.e1_array(xs)
    b = _kernels_py.e1_array(xs)
    assert np.max(np.abs(a - b) / b) <= 1e-15


def test_e1_scaled_agreement():
    xs = np.logspace(-6, 12, 500)
    a = compiled.e1_scaled_array(xs)
    b = _kernels_py.e1_scaled_array(xs)
    assert np.max(np.abs(a - b) / b) <= 1e-15


def test_scalar_paths():
    for x in (1e-5, 0.5, 1.0, 1.0000001, 30.0, 800.0):
        assert compiled.e1_scaled(x) == pytest.approx(_kernels_py.e1_scaled(x), rel=1e-15)


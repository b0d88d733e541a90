"""erf/erfc accuracy against a high-precision oracle."""

import mpmath
import numpy as np
import pytest

from wignerflow import ConfigurationError, erf, erfc


@pytest.fixture(scope="module")
def oracle():
    mpmath.mp.dps = 50
    return mpmath


def test_erf_matches_high_precision_oracle_on_window(oracle):
    xs = np.linspace(-6.0, 6.0, 4001)
    ours = erf(xs)
    exact = np.array([float(oracle.erf(oracle.mpf(float(x)))) for x in xs])
    assert np.max(np.abs(ours - exact)) <= 1e-14


def test_erf_absolute_error_below_1e15_everywhere(oracle):
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        rng.uniform(-30, 30, 500),
        rng.uniform(-1, 1, 500),
        np.array([0.0, 0.84375, 1.25, 1 / 0.35, 6.0, -6.0, 27.0, 1e-9, -1e-9]),
    ])
    ours = erf(xs)
    exact = np.array([float(oracle.erf(oracle.mpf(float(x)))) for x in xs])
    assert np.max(np.abs(ours - exact)) <= 1e-15


def test_erfc_relative_accuracy_in_tail(oracle):
    xs = np.linspace(0.1, 26.0, 700)
    ours = erfc(xs)
    exact = np.array([float(oracle.erfc(oracle.mpf(float(x)))) for x in xs])
    assert np.max(np.abs(ours - exact) / exact) <= 5e-14


def test_erf_is_odd_and_erfc_complements():
    xs = np.linspace(-8, 8, 1601)
    np.testing.assert_allclose(erf(-xs), -erf(xs), rtol=0, atol=0)
    np.testing.assert_allclose(erf(xs) + erfc(xs), 1.0, rtol=0, atol=2e-16)


def test_scalar_interface_and_special_values():
    assert erf(0.0) == 0.0
    assert erfc(0.0) == 1.0
    assert erf(10.0) == 1.0
    assert erfc(30.0) == 0.0
    assert erfc(-30.0) == 2.0
    assert isinstance(erf(0.3), float)
    for f in (erf, erfc):
        with pytest.raises(ConfigurationError, match="query point is nan"):
            f(float("nan"))

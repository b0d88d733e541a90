"""erf/erfc accuracy against a high-precision oracle, and bit identity with msun's branches."""

import warnings

import mpmath
import numpy as np
import pytest

from wignerflow import ConfigurationError, erf, erfc
from wignerflow.special import _EFX, _ERX, _PA, _PP, _QA, _QQ, _RA, _RB, _SA, _SB


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
    assert erf(np.inf) == 1.0 and erf(-np.inf) == -1.0
    assert erfc(np.inf) == 0.0 and erfc(-np.inf) == 2.0
    assert isinstance(erf(0.3), float)
    for f in (erf, erfc):
        with pytest.raises(ConfigurationError, match="query point is nan"):
            f(float("nan"))


# Reference: msun's s_erf.c branch by branch, one masked evaluation per branch, on the same
# coefficient tuples as wignerflow.special.


def _poly(coeffs, z):
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _tail_factor(ax):
    """exp(-x^2 - 0.5625 + R/S) for |x| >= 1.25, x^2 split at the high word."""
    s = 1.0 / (ax * ax)
    ratio = np.where(ax < 1.0 / 0.35, _poly(_RA, s) / _poly(_SA, s), _poly(_RB, s) / _poly(_SB, s))
    z = (ax.view(np.uint64) & np.uint64(0xFFFFFFFF00000000)).view(np.float64)
    return np.exp(-z * z - 0.5625) * np.exp((z - ax) * (z + ax) + ratio)


def _reference_erf(x):
    ax = np.abs(x)
    out = np.empty_like(x)
    tiny = ax < 3.7252902984e-09  # 2^-28
    out[tiny] = x[tiny] * (1.0 + _EFX)
    small = ~tiny & (ax < 0.84375)
    z = x[small] ** 2
    out[small] = x[small] * (1.0 + _poly(_PP, z) / _poly(_QQ, z))
    mid = (ax >= 0.84375) & (ax < 1.25)
    s = ax[mid] - 1.0
    out[mid] = np.sign(x[mid]) * (_ERX + _poly(_PA, s) / _poly(_QA, s))
    tail = (ax >= 1.25) & (ax < 6.0)
    out[tail] = np.sign(x[tail]) * (1.0 - _tail_factor(ax[tail]) / ax[tail])
    out[ax >= 6.0] = np.sign(x[ax >= 6.0])
    return out


def _reference_erfc(x):
    ax = np.abs(x)
    out = np.empty_like(x)
    near = ax < 1.25
    out[near] = 1.0 - _reference_erf(x[near])
    tail = (ax >= 1.25) & (ax < 28.0)
    r = _tail_factor(ax[tail]) / ax[tail]
    out[tail] = np.where(x[tail] > 0, r, 2.0 - r)
    far = ax >= 28.0
    out[far] = np.where(x[far] > 0, 0.0, 2.0)
    return out


def test_one_table_path_keeps_the_bits_of_the_branchwise_reference():
    rng = np.random.default_rng(20240917)
    edges = np.array([3.7252902984e-09, 2.0**-28, 0.84375, 1.25, 1.0 / 0.35, 6.0, 28.0])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    magnitudes = 10.0 ** rng.uniform(-300.0, 2.0, 100_000)
    xs = np.concatenate([
        rng.uniform(-30.0, 30.0, 200_000),
        rng.uniform(-2.0, 2.0, 100_000),
        magnitudes, -magnitudes, edges, -edges,
        [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ours, reference in ((erf, _reference_erf), (erfc, _reference_erfc)):
            got, want = ours(xs).view(np.int64), reference(xs).view(np.int64)
            assert np.array_equal(got, want), xs[got != want][:5]

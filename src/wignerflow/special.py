"""Double-precision erf and erfc, implemented in-repo for bit-stable output.

Rational Chebyshev approximations from FreeBSD's msun (s_erf.c), including
the split-argument evaluation of exp(-x*x) that keeps the tail branches
accurate to < 1 ulp.

Origin: FreeBSD /usr/src/lib/msun/src/s_erf.c

====================================================
Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.

Developed at SunPro, a Sun Microsystems, Inc. business.
Permission to use, copy, modify, and distribute this
software is freely granted, provided that this notice
is preserved.
====================================================
"""

from __future__ import annotations

import numpy as np

from .errors import reject_nan

_ERX = 8.45062911510467529297e-01
_EFX = 1.28379167095512586316e-01

# erf on [0, 0.84375]: erf(x) = x + x * P(x^2)/Q(x^2)
_PP = (
    1.28379167095512558561e-01,
    -3.25042107247001499370e-01,
    -2.84817495755985104766e-02,
    -5.77027029648944159157e-03,
    -2.37630166566501626084e-05,
)
_QQ = (
    1.0,
    3.97917223959155352819e-01,
    6.50222499887672944485e-02,
    5.08130628187576562776e-03,
    1.32494738004321644526e-04,
    -3.96022827877536812320e-06,
)

# erf on [0.84375, 1.25]: erf(x) = erx + P(s)/Q(s), s = |x| - 1
_PA = (
    -2.36211856075265944077e-03,
    4.14856118683748331666e-01,
    -3.72207876035701323847e-01,
    3.18346619901161753674e-01,
    -1.10894694282396677476e-01,
    3.54783043256182359371e-02,
    -2.16637559486879084300e-03,
)
_QA = (
    1.0,
    1.06420880400844228286e-01,
    5.40397917702171048937e-01,
    7.18286544141962662868e-02,
    1.26171219808761642112e-01,
    1.36370839120290507362e-02,
    1.19844998467991074170e-02,
)

# erfc on [1.25, 1/0.35]: erfc(x) = exp(-x^2 - 0.5625 + R(s)/S(s))/x, s = 1/x^2
_RA = (
    -9.86494403484714822705e-03,
    -6.93858572707181764372e-01,
    -1.05586262253232909814e01,
    -6.23753324503260060396e01,
    -1.62396669462573470355e02,
    -1.84605092906711035994e02,
    -8.12874355063065934246e01,
    -9.81432934416914548592e00,
)
_SA = (
    1.0,
    1.96512716674392571292e01,
    1.37657754143519042600e02,
    4.34565877475229228821e02,
    6.45387271733267880336e02,
    4.29008140027567833386e02,
    1.08635005541779435134e02,
    6.57024977031928170135e00,
    -6.04244152148580987438e-02,
)

# erfc on [1/0.35, 28]
_RB = (
    -9.86494292470009928597e-03,
    -7.99283237680523006574e-01,
    -1.77579549177547519889e01,
    -1.60636384855821916062e02,
    -6.37566443368389627722e02,
    -1.02509513161107724954e03,
    -4.83519191608651397019e02,
)
_SB = (
    1.0,
    3.03380607434824582924e01,
    3.25792512996573918826e02,
    1.53672958608443695994e03,
    3.19985821950859553908e03,
    2.55305040643316442583e03,
    4.74528541206955367215e02,
    -2.24409524465858183362e01,
)


def _poly(coeffs, z):
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _hi_word_only(x: np.ndarray) -> np.ndarray:
    """Zero the low 32 bits of the significand (SET_LOW_WORD(z, 0))."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    return (bits & np.uint64(0xFFFFFFFF00000000)).view(np.float64)


def _tail_factor(ax: np.ndarray) -> np.ndarray:
    """exp(-x^2 - 0.5625 + R/S) for |x| >= 1.25, split to preserve precision."""
    s = 1.0 / (ax * ax)
    mid = ax < (1.0 / 0.35)
    ratio = np.where(
        mid,
        _poly(_RA, s) / _poly(_SA, s),
        _poly(_RB, s) / _poly(_SB, s),
    )
    z = _hi_word_only(ax)
    return np.exp(-z * z - 0.5625) * np.exp((z - ax) * (z + ax) + ratio)


def erf(x):
    """Error function, max error below 1e-15 on the real line; ConfigurationError at nan."""
    x_arr = np.asarray(x, dtype=np.float64)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    reject_nan("erf", x_arr)
    ax = np.abs(x_arr)
    out = np.empty_like(x_arr)

    tiny = ax < 3.7252902984e-09  # 2^-28
    out[tiny] = x_arr[tiny] * (1.0 + _EFX)

    small = ~tiny & (ax < 0.84375)
    if small.any():
        z = x_arr[small] ** 2
        out[small] = x_arr[small] * (1.0 + _poly(_PP, z) / _poly(_QQ, z))

    mid = (ax >= 0.84375) & (ax < 1.25)
    if mid.any():
        s = ax[mid] - 1.0
        out[mid] = np.sign(x_arr[mid]) * (_ERX + _poly(_PA, s) / _poly(_QA, s))

    tail = (ax >= 1.25) & (ax < 6.0)
    if tail.any():
        r = _tail_factor(ax[tail]) / ax[tail]
        out[tail] = np.sign(x_arr[tail]) * (1.0 - r)

    out[ax >= 6.0] = np.sign(x_arr[ax >= 6.0])
    return float(out[0]) if scalar else out


def erfc(x):
    """Complementary error function, relatively accurate into the far tail; ConfigurationError
    at nan."""
    x_arr = np.asarray(x, dtype=np.float64)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    reject_nan("erfc", x_arr)
    ax = np.abs(x_arr)
    out = np.empty_like(x_arr)

    near = ax < 1.25
    if near.any():
        out[near] = 1.0 - erf(x_arr[near])

    tail = (ax >= 1.25) & (ax < 28.0)
    if tail.any():
        r = _tail_factor(ax[tail]) / ax[tail]
        out[tail] = np.where(x_arr[tail] > 0, r, 2.0 - r)

    far = ax >= 28.0
    out[far] = np.where(x_arr[far] > 0, 0.0, 2.0)
    return float(out[0]) if scalar else out

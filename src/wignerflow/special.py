"""Double-precision erf and erfc, implemented in-repo for bit-stable output.

Rational Chebyshev approximations from FreeBSD's msun (s_erf.c), including the split-argument
evaluation of exp(-x*x) that keeps the tail branches accurate to < 1 ulp.  The four branches'
fits are stacked into one zero-padded table, so every point takes one path: its branch from
|x|, one Horner loop, each branch formula, one select.  A point meets the same floating-point
operations as in msun's branch for it, so the results keep msun's bits.

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


# _TABLE[k, 0 or 1, b]: order k of branch b's numerator or denominator fit, zero-padded at high
# order: a padded Horner step gives +-0 * s plus the next coefficient, that coefficient exactly.
_FITS = ((_PP, _QQ), (_PA, _QA), (_RA, _SA), (_RB, _SB))
_TABLE = np.array([[np.pad(c, (0, 9 - len(c))) for c in pair] for pair in _FITS]).T.copy()
_EDGES = (0.84375, 1.25, 1.0 / 0.35)  # branch b covers |x| from edge b - 1 up to edge b


def _evaluate(what: str, x):
    """(x, inner, near, r): x as a float array of at least one dimension, inner where |x| < 1.25,
    near = erf(x) there and r = erfc(|x|) elsewhere, each finite junk off its side.  |x| is
    clamped at 28, where r reads exactly 0 (1 - r reads 1 from |x| = 6 on), and the tail
    abscissa is held at 1.25 or more, so that no operation overflows or divides by zero."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    reject_nan(what, x)
    xc = np.clip(x, -28.0, 28.0)
    ax, at = np.abs(xc), np.maximum(np.abs(xc), 1.25)
    b = sum(ax >= edge for edge in _EDGES)  # the number of edges at or below |x|
    s = np.where(b < 2, np.where(b == 0, ax * ax, ax - 1.0), 1.0 / (at * at))
    coeffs = np.take(_TABLE, b, axis=2)  # contiguous in x for each (order, P or Q)
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * s + c
    ratio = acc[0] / acc[1]
    small = xc * (1.0 + np.where(ax < 3.7252902984e-09, _EFX, ratio))  # 2^-28: x (1 + efx)
    near = np.where(b == 0, small, np.sign(xc) * (_ERX + ratio))
    # exp(-x^2 - 0.5625 + R/S)/x, x^2 split at z, x with the low word zeroed (SET_LOW_WORD)
    z = (at.view(np.uint64) & np.uint64(0xFFFFFFFF00000000)).view(np.float64)
    r = np.exp(-z * z - 0.5625) * np.exp((z - at) * (z + at) + ratio) / at
    return x, b < 2, near, r


def erf(x):
    """Error function, max error below 1e-15 on the real line; ConfigurationError at nan."""
    x_arr, inner, near, r = _evaluate("erf", x)
    out = np.where(inner, near, np.sign(x_arr) * (1.0 - r))
    return float(out[0]) if np.ndim(x) == 0 else out


def erfc(x):
    """1 - erf(x), relatively accurate into the far tail; ConfigurationError at nan."""
    x_arr, inner, near, r = _evaluate("erfc", x)
    out = np.where(inner, 1.0 - near, np.where(x_arr > 0, r, 2.0 - r))
    return float(out[0]) if np.ndim(x) == 0 else out

"""Python's '%.17g' of float64 arrays, written as NUL-padded byte rows.

The 17 significant digits of |v| are round(|v| 10^(16-k)) with k = floor(log10 |v|).  The
scale 10^(16-k) is held as a double-double hi + lo, each the correctly rounded part of the
exact power, and Dekker's two-product (Numer. Math. 18, 1971) forms |v| hi without rounding
error in plain binary64 arithmetic, so the computed product is within about 1e-14 of the
exact one and its rounding to an integer is decided unless the fraction lies within 2^-24
of 1/2.  Those near-ties (exact decimal ties among them), a rounding up to 10^17, +-0, inf,
nan and |v| outside [1e-280, 1e300) (where the split or the table's low parts would leave
the double range) are written by Python's '%' instead (cf. Adams, "Ryu revisited: printf
floating point conversion", OOPSLA 2019).

Each value takes 32 bytes, as four uint64 words: its text, with NUL bytes where the layout
has room the text does not use (the sign, a "0.000" prefix, the digits with their decimal
point, the exponent), so a caller drops the NULs to read it.
"""

from __future__ import annotations

import functools

import numpy as np

_PASS = 4000  # values per pass: a (4, n) uint64 temporary stays under 128 KiB
_FAST = (1e-280, 1e300)
_TIE = 2.0**-24  # the computed product is within ~1e-14 of the exact one
_E0 = -300  # the power table holds 10^e for e from _E0 to 301
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant


def _words(rows) -> np.ndarray:
    """Rows of 32 bytes as four little-endian uint64 words, word-major: (4, len(rows))."""
    return np.ascontiguousarray(np.asarray(rows, np.uint8).view("<u8").T)


@functools.cache
def _tables():
    """The power table and the digit and layout tables, built on first use."""
    powers = np.arange(_E0, 302)
    exps = powers.tolist()
    hi, lo = np.empty(len(exps)), np.empty(len(exps))
    for i, e in enumerate(exps):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi[i] = num / den  # int / int rounds once, correctly
        h_num, h_den = hi[i].as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
    with np.errstate(over="ignore", invalid="ignore"):  # 10^300, 10^301: compared, never scaled by
        c = _SPLIT * hi
        hi_hi = c - (c - hi)
    # |v| >= 10^e exactly where |v| >= the least double >= 10^e
    least = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    # four digits as the low half of a uint64; by group j of four (digits 4j + 1 to 4j + 4),
    # the place of its last nonzero digit (0 for 0000, as digit 0 is never zero); the
    # first digit, as byte 7
    table4 = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    last4 = np.where(table4 != 48, np.arange(1, 5), 0).max(axis=1)
    last4 = [np.where(last4 > 0, last4 + 4 * j, 0) for j in range(4)]
    first = (np.arange(11, dtype="<u8") + 48) << 56
    # by exponent: the point follows digit k for 0 <= k < 17 and digit 0 in the exponent
    # form; below 1, "0." is in the prefix and the point's place, past the last digit, is empty
    dot = np.where((powers >= -4) & (powers < 17), np.where(powers >= 0, powers, 17), 0)
    # by 4 (exponent index) + 2 signbit + (a digit follows the point): the sign, the prefix
    # (bytes 1-5), the point (byte 8 + dot) and the exponent (bytes 26-30)
    texts = [
        b"\0" + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"").ljust(25, b"\0")
        + (b"" if -4 <= e < 17 else b"e%+03d" % e)
        for e in exps
    ]
    ends = np.zeros((len(exps), 2, 2, 32), np.uint8)
    ends[...] = np.array(texts, "S32").view(np.uint8).reshape(-1, 1, 1, 32)
    ends[:, 1, :, 0] = ord("-")
    ends[np.arange(len(exps)), :, 1, 8 + dot] = ord(".")
    # by 17 q + last (q the point's place, last the last nonzero digit): digit c of the
    # text goes to byte 7 + c up to the point and to byte 8 + c after it; %g drops the
    # zeros after the point, not those before it
    byte = np.arange(32)
    q = np.repeat(np.arange(18), 17)[:, None]
    last = np.maximum(np.tile(np.arange(17), 18)[:, None], q % 17)
    before = (byte >= 7) & (byte <= 7 + np.minimum(q, last))
    after = (byte >= 9 + q) & (byte <= 8 + last)
    return (
        least, np.stack([hi, lo, hi_hi, hi - hi_hi]), table4.view("<u4").ravel().astype("<u8"),
        last4, first, dot, _words(ends.reshape(-1, 32)), _words(before * 255), _words(after * 255),
    )


def write_g17(values: np.ndarray, out: np.ndarray) -> int:
    """Write '%.17g' % v of each float64 value, NUL-padded to 31 bytes, into bytes 0-30 of
    the matching row of out, an (n, 4) uint64 array or view; byte 31 stays NUL.  Return
    how many values took Python's '%' (the others took the exact vectorised path)."""
    slow = 0
    for start in range(0, len(values), _PASS):
        stop = start + _PASS
        slow += _write_pass(values[start:stop], out[start:stop])
    return slow


def _write_pass(v: np.ndarray, out: np.ndarray) -> int:
    least, scale, table4, last4, first, dot, ends, before, after = _tables()
    a = np.abs(v)
    fast = (a >= _FAST[0]) & (a < _FAST[1])
    a = np.where(fast, a, 1.0)
    # i = k - _E0 for k = floor(log10 a): log10 may be off by one, either way with a libm
    # that is not correctly rounded, next to a power of ten; comparing a with the least
    # double >= 10^k decides exactly
    i = (np.log10(a) - _E0).astype(np.intp)
    i -= a < least[i]
    i += a >= least[i + 1]
    # a 10^(16-k) = p + err + a lo up to ~1e-14, where p + err = a hi exactly (Dekker)
    hi, lo, hi_hi, hi_lo = scale.take(16 - 2 * _E0 - i, axis=1)
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * hi
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    t = err + a * lo
    r = np.rint(t)
    # p >= 10^16 > 2^53 is an integer, so the 17 digits are p + r, in [10^16, 10^17];
    # 10^17, a carry into the next exponent, goes to '%' with the near-ties
    digits = p.astype(np.int64) + r.astype(np.int64)
    fast &= (np.abs(t - r) < 0.5 - _TIE) & (digits < 10**17)
    head = digits // 10**8
    lead = head // 10**8
    groups = np.empty((4, len(v)), np.intp)  # digits 2-5, 6-9, 10-13, 14-17
    groups[1] = head - lead * 10**8
    groups[3] = digits - head * 10**8
    groups[::2] = groups[1::2] // 10_000
    groups[1::2] -= groups[::2] * 10_000
    last = np.maximum(np.maximum(last4[0].take(groups[0]), last4[1].take(groups[1])),
                      np.maximum(last4[2].take(groups[2]), last4[3].take(groups[3])))
    q = dot[i]
    case = 17 * q + last
    # the text as four uint64 words, word-major, with digit c at byte 7 + c
    text = np.zeros((4, len(v)), "<u8")
    text[0] = first.take(lead)
    quads = table4.take(groups)
    text[1:3] = quads[::2] | quads[1::2] << 32
    slot = text & before.take(case, axis=1)
    text[1:] = text[1:] << 8 | text[:-1] >> 56  # digit c at byte 8 + c
    slot |= text & after.take(case, axis=1)
    slot |= ends.take(4 * i + 2 * np.signbit(v) + (last > q), axis=1)
    out[:] = slot.T
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([b"%.17g" % x for x in v[slow].tolist()], "S32")
        out[slow] = text.view("<u8").reshape(-1, 4)
    return slow.size

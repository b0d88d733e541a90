"""The drive integrals of a tabulated drive, computed with the table segments on one array axis
in blocks of bounded scratch, are bit for bit those of the per-segment loop kept here as the
reference, at every shape of t and for every block size."""

import tracemalloc

import numpy as np
import pytest

import wignerflow as wf
from wignerflow import flow, transform

GAMMAS = [-1.0, 0.0, 0.7]


def _tabulated_terms_by_segment(gamma, drive, t, L):
    """The reference: one pass per table segment, its terms added to the running totals."""
    def carried(t_map, l_seg, f_a, f_b):
        c_m, s_m, l_map = flow._angle(gamma, t_map)
        a1, a2, b1, b2 = flow._homogeneous(gamma, t_map, c_m, s_m)
        grow = np.exp(l_map + l_seg - L)
        return [grow * (u * f_a + v * f_b) for u, v in ((a1, a2), (b1, b2))]

    edges = np.concatenate(([0.0], drive.times[drive.times > 0.0], [np.inf]))
    totals = [0.0] * 4
    for start, stop in zip(edges[:-1], edges[1:]):
        lo, hi = np.minimum(start, t), np.minimum(stop, t)
        q_lo, q_hi = (np.interp(e, drive.times, drive.values) for e in (lo, hi))
        h, dq = hi - lo, q_hi - q_lo
        c, s, l_seg = flow._angle(gamma, h)
        hs, k3 = h * s, flow._stumpff_c3(gamma, h)
        sq, sc, ramp, half = hs * hs, hs * c, 2.0 * h * h * k3, 0.5 * hs * s
        terms = (*carried(lo, l_seg, -q_hi * sq + dq * ramp, q_hi * sc - dq * half),
                 *carried(t - hi, l_seg, -q_lo * sq - dq * ramp, q_lo * sc + dq * half))
        totals = [total + term for total, term in zip(totals, terms)]
    return totals


def _table(segments, first):
    """A drive whose table has the given number of segments (edges [0, knots after 0, inf]),
    its knots spread over [first, first + 6] at uneven gaps, its values of mixed scale."""
    rng = np.random.default_rng(segments)
    knots = segments if first == 0.0 else segments - 1
    gaps = rng.uniform(0.2, 1.0, knots - 1)
    times = first + 6.0 * np.concatenate(([0.0], np.cumsum(gaps))) / gaps.sum()
    values = rng.uniform(-1.0, 1.0, knots) * 10.0 ** rng.integers(-3, 4, knots)
    return wf.Tabulated(times, values)


def _time_forms(drive, segments):
    """t as Python floats (at a knot, between knots, past the last knot), a 0-d array, a 1-d
    and a 2-d array spanning the table and past it, and an empty array."""
    end = float(drive.times[-1])
    floats = [float(drive.times[len(drive.times) // 2]), 0.37 * end, end + 1.3]
    grid = np.linspace(0.0, end + 1.0, 12)
    if segments >= 1000:  # the per-segment reference is slow; one float and the 2-d block
        return [floats[2], grid.reshape(3, 4)]
    return [*floats, np.array(0.61 * end), grid[::2], grid.reshape(3, 4), np.empty((2, 0))]


def _assert_same_bits(gamma, drive, t):
    L = flow._angle(gamma, np.asarray(t, dtype=float))[2]
    expected = _tabulated_terms_by_segment(gamma, drive, t, L)
    got = flow._tabulated_terms(gamma, drive, t, L)
    for name, a, b in zip(("a3", "b3", "conv_q", "conv_p"), got, expected, strict=True):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, gamma, t)


# the first knot at 0 or after it (a table of 2 segments has its first knot at 0); the
# 1,000-segment reference is slow, so that table is checked once
CASES = [(segments, first) for segments in (2, 3, 8, 9, 40) for first in (0.0, 0.4)
         if first == 0.0 or segments >= 3] + [(1000, 0.4)]


@pytest.mark.parametrize("segments, first", CASES)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_segment_axis_is_the_per_segment_loop_bit_for_bit(segments, first, gamma):
    drive = _table(segments, first)
    for t in _time_forms(drive, segments):
        _assert_same_bits(gamma, drive, t)


@pytest.mark.parametrize("extra_bytes", [1, 1500, 6000])
@pytest.mark.parametrize("gamma", GAMMAS)
def test_segment_blocks_keep_the_bits(monkeypatch, extra_bytes, gamma):
    blocks = []
    row_chunks = flow._row_chunks

    def spied(*args):
        blocks.append(row_chunks(*args))
        return blocks[-1]

    # a budget of extra_bytes beyond NumPy's ufunc buffer: from one segment per block up
    monkeypatch.setattr(transform, "_CHUNK_BYTES", 16 * np.getbufsize() + extra_bytes)
    monkeypatch.setattr(flow, "_row_chunks", spied)
    drive = _table(40, 0.4)
    for t in _time_forms(drive, 40):
        blocks.clear()
        _assert_same_bits(gamma, drive, t)
        assert len(blocks) == 1 and len(blocks[0]) > 1, t


def test_a_long_table_runs_in_bounded_scratch():
    drive = _table(1000, 0.0)
    params = wf.OscillatorParams(-1.0, drive)
    t = np.linspace(0.0, 7.0, 301)
    flow._last_flow = None
    tracemalloc.start()
    try:
        wf.flow_coefficients(params, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * transform._CHUNK_BYTES  # one segment block at a time (72 MB in one)

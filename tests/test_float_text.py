"""The CLI's float cells: `write_g17`'s text is byte for byte Python's '%.17g'.

A seeded sweep (normals over +-300 decades, uniforms, integers up to 2^53 and random bit
patterns), every power of two and of ten with their neighbours, exact decimal ties, the
switches of %g between its fixed and exponent forms, the edges of the vectorised range,
+-0, +-inf and nan payloads, and Hypothesis floats.  For a longer sweep run

    PYTHONPATH=src python tests/test_float_text.py --values 10000000 --seed 1
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerflow._float_text import write_g17


def mismatches(values: np.ndarray) -> tuple[list[tuple[float, str, str]], int]:
    """(value, text, '%.17g' % value) where write_g17's text differs, and how many values
    took Python's '%'."""
    values = np.asarray(values, np.float64)
    words = np.zeros((len(values), 4), "<u8")
    slow = write_g17(values, words)
    words[:, 3] |= np.uint64(ord("\n") << 56)
    text = words.tobytes().translate(None, b"\0").decode()
    want = ["%.17g" % v for v in values.tolist()]
    if text == "".join(w + "\n" for w in want):
        return [], slow
    got = text.split("\n")
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w], slow


def sweep_values(n: int, rng: np.random.Generator) -> np.ndarray:
    """n values, a quarter of each kind, in a seeded random order."""
    k = -(-n // 4)
    kinds = [
        rng.standard_normal(k) * 10.0 ** rng.integers(-300, 301, k),
        rng.random(k) * rng.choice([-1.0, 1.0], k),
        rng.integers(-(2**53), 2**53, k, endpoint=True).astype(np.float64),
        rng.integers(0, 2**64, k, dtype=np.uint64).view(np.float64),
    ]
    return rng.permutation(np.concatenate(kinds))[:n]


def sweep(n: int, seed: int, batch: int = 1_000_000) -> tuple[int, int, list]:
    """Check n seeded values, batch at a time: (values checked, how many took Python's '%',
    the mismatches)."""
    rng = np.random.default_rng(seed)
    checked = slow = 0
    found: list = []
    while checked < n:
        values = sweep_values(min(batch, n - checked), rng)
        bad, batch_slow = mismatches(values)
        checked, slow, found = checked + len(values), slow + batch_slow, found + bad
    return checked, slow, found


def _with_neighbours(values, steps: int = 1) -> np.ndarray:
    out = [np.asarray(values, np.float64)]
    for direction in (-np.inf, np.inf):
        x = out[0]
        for _ in range(steps):
            x = np.nextafter(x, direction)
            out.append(x)
    both = np.concatenate(out)
    return np.concatenate([both, -both])


def test_seeded_sweep_matches_python_percent():
    checked, slow, found = sweep(1_000_000, seed=20211)
    assert found == []
    assert checked == 1_000_000 and slow < 0.1 * checked  # most values take the vector path


def test_every_power_of_two_including_the_subnormals():
    found, _ = mismatches(_with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    assert found == []


def test_every_power_of_ten_and_its_neighbours():
    found, _ = mismatches(_with_neighbours([float(f"1e{e}") for e in range(-323, 309)]))
    assert found == []


def test_neighbours_of_the_g_switches_and_of_the_vector_range():
    # %g writes 1e-05 but 0.0001, 9999999999999998 but 1e+16; the vectorised digits
    # hold for |v| in [1e-280, 1e300)
    found, slow = mismatches(_with_neighbours([1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e300], 8))
    assert found == []
    assert 0 < slow < 17 * 12


def test_exact_decimal_ties_round_half_even():
    # M / 2^d (M odd) has d decimals, the last a 5; with 18 significant digits it is a tie
    ties = []
    for d in range(18, 26):
        low, high = 2**d // 10 ** (d - 17), 2**d // 10 ** (d - 18) + 1
        ties += [m / 2**d for m in range(low | 1, high, 2 * max(1, (high - low) // 80))]
    ties = [v for v in ties if len(Decimal(v).as_tuple().digits) == 18]
    assert len(ties) > 100
    found, slow = mismatches(_with_neighbours(ties))
    assert found == []
    assert slow >= 2 * len(ties)  # every tie, of either sign, takes Python's '%'


def test_zeros_infinities_and_nan_payloads():
    bits = np.array([0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                     0xFFF8000000000000, 0x7FF0000000000001, 0x7FF4000000000000,
                     0xFFF0000000000123, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF], np.uint64)
    values = bits.view(np.float64)
    found, slow = mismatches(values)
    assert found == [] and slow == len(values)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_drawn_floats_match_python_percent(values):
    found, _ = mismatches(np.array(values, np.float64))
    assert found == []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Sweep write_g17 against Python's '%.17g'.")
    parser.add_argument("--values", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checked, slow, found = sweep(args.values, args.seed)
    print(f"{checked} values checked, {checked - slow} ({(checked - slow) / checked:.4%}) on "
          f"the vectorised path, {len(found)} mismatches")
    for value, got, want in found[:10]:
        print(f"  {value!r}: {got!r}, '%.17g' gives {want!r}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

"""The driven oscillator against Husimi's law (Prog. Theor. Phys. 9, 381, 1953).

For V = omega^2 x^2 + Q(t) x (2m = 1 units, so the classical frequency is
2 omega) the ground state moves to a coherent state whose level populations
are Poisson, P_n = e^{-|alpha|^2} |alpha|^{2n} / n!, with
|alpha|^2 = |Int_0^t Q(s) e^{2 i omega s} ds|^2 / (2 hbar omega).  The
integral is written here in closed form for each drive; the populations are
read through the library's own pieces: the ground-state field moved by
propagate_field, and overlap_identity against each level's closed-form field.
"""

import cmath
import math

import numpy as np
import pytest

import wignerflow as wf

LEVELS = 7  # n = 0..6


def _segment(c0, c1, a, b, k):
    """Int_a^b (c0 + c1 (s - a)) e^{i k s} ds, k != 0."""
    ea, eb = cmath.exp(1j * k * a), cmath.exp(1j * k * b)
    flat = (eb - ea) / (1j * k)
    return c0 * flat + c1 * ((b - a) * eb / (1j * k) - flat / (1j * k))


def _drive_integral(drive, omega, t):
    """Int_0^t Q(s) e^{2 i omega s} ds in closed form."""
    k = 2.0 * omega
    if isinstance(drive, wf.Constant):
        return _segment(drive.lam, 0.0, 0.0, t, k)
    if isinstance(drive, wf.Cosine):
        total = _segment(drive.lam, 0.0, 0.0, t, k)
        for sign in (1.0, -1.0):  # b cos(Omega s) = b/2 (e^{i Omega s} + e^{-i Omega s})
            shifted = k + sign * drive.Omega
            total += drive.b / 2.0 * (t if shifted == 0.0 else _segment(1.0, 0.0, 0.0, t, shifted))
        return total
    times, values = drive.times.tolist(), drive.values.tolist()
    assert times[0] == 0.0 < times[-1] < t  # one ramp per knot interval, then the last value
    total = sum(_segment(v0, (v1 - v0) / (b - a), a, b, k)
                for a, b, v0, v1 in zip(times, times[1:], values, values[1:]))
    return total + _segment(values[-1], 0.0, times[-1], t, k)


CASES = [  # (drive, omega, hbar, t)
    (wf.Constant(2.0), 1.0, 1.0, 1.3),
    (wf.Cosine(0.2, 0.7, 1.1), 0.8, 0.9, 2.4),
    (wf.Cosine(0.0, 1.5, 2.0 * 1.2), 1.2, 1.1, 3.0),  # resonant: Omega = 2 omega
    (wf.Tabulated([0.0, 0.4, 1.0, 1.7], [0.5, 2.5, 1.0, -1.5]), 1.0, 0.8, 2.2),
]


@pytest.mark.parametrize("drive, omega, hbar, t", CASES,
                         ids=["constant", "cosine", "resonant_cosine", "tabulated"])
def test_levels_of_the_driven_ground_state_are_poisson(drive, omega, hbar, t):
    alpha_sq = abs(_drive_integral(drive, omega, t)) ** 2 / (2.0 * hbar * omega)
    assert alpha_sq > 0.5  # the drive moves the state past a small perturbation
    scale = math.sqrt(hbar / omega)  # the ground state's width in x
    ps = wf.natural_grid(wf.Grid1D.symmetric(14.0 * scale, 257), hbar)
    x, xi = ps.x_grid.nodes()[:, None], ps.xi_grid.nodes()
    ground = wf.HarmonicEigen(0, omega, hbar, normalized=True)
    moved = wf.propagate_field(ground.wigner, wf.OscillatorParams(omega**2, drive, hbar), t, ps)
    for n in range(LEVELS):
        level = wf.WignerField(ps, wf.HarmonicEigen(n, omega, hbar, normalized=True).wigner(x, xi),
                               hbar)
        poisson = math.exp(-alpha_sq) * alpha_sq**n / math.factorial(n)
        assert abs(wf.overlap_identity(moved, level) - poisson) <= 1e-12, n

"""Flow coefficients, drive terms and P(t) against a 50-digit mpmath oracle.

The oracle is independent of the library's formulas: it writes a2 and b2 as
sums of exponentials e^{beta s} (or polynomials at gamma = 0), splits each
drive into pieces c(s) e^{beta s} with c linear, and integrates every product
exactly through Int_0^h u^j e^{beta u} du = h^{j+1} 1F1(j+1; j+2; beta h)/(j+1).
"""

import math

import mpmath as mp
import numpy as np
import pytest

import wignerflow as wf

NAMES = ("a1", "a2", "b1", "b2", "a3", "b3", "conv_q", "conv_p")
GAMMAS = (1e-14, 5e-9, 1e-8 * (1 - 1e-4), 1e-8 * (1 + 1e-4), 1e-6, 1.0, 25.0)


def _power_exp(j, beta, h):
    if beta == 0:
        return h ** (j + 1) / (j + 1)
    return h ** (j + 1) * mp.hyp1f1(j + 1, j + 2, beta * h) / (j + 1)


def _kernel(gamma, name, t=None):
    """a2 or b2 at s (t None) or at t - s, as [(coef, power of s, beta)]."""
    if gamma == 0:
        if name == "b2":
            return [(mp.mpf(1), 0, 0)]
        return [(-2, 1, 0)] if t is None else [(-2 * t, 0, 0), (2, 1, 0)]
    # a2(s) = -(e^{iks} - e^{-iks})/(ik), b2(s) = (e^{iks} + e^{-iks})/2, k = 2 sqrt(gamma)
    ik = 2j * mp.sqrt(mp.mpc(gamma))
    first, second = (-1 / ik, 1 / ik) if name == "a2" else (mp.mpf(0.5), mp.mpf(0.5))
    if t is None:
        return [(first, 0, ik), (second, 0, -ik)]
    return [(first * mp.exp(ik * t), 0, -ik), (second * mp.exp(-ik * t), 0, ik)]


def _pieces(drive, t):
    """Q on [0, t] as [(a, b, (c0, c1), beta)]: Q(s) = (c0 + c1 (s - a)) e^{beta s}."""
    if isinstance(drive, wf.Constant):
        return [(0, t, (mp.mpf(drive.lam), 0), 0)]
    if isinstance(drive, wf.Cosine):
        lam, half, om = mp.mpf(drive.lam), mp.mpf(drive.b) / 2, mp.mpf(drive.Omega)
        return [(0, t, (lam, 0), 0), (0, t, (half, 0), 1j * om), (0, t, (half, 0), -1j * om)]
    times = [mp.mpf(float(v)) for v in drive.times]
    values = [mp.mpf(float(v)) for v in drive.values]

    def q(s):
        if s <= times[0]:
            return values[0]
        for i in range(len(times) - 1):
            if s <= times[i + 1]:
                w = (s - times[i]) / (times[i + 1] - times[i])
                return values[i] + w * (values[i + 1] - values[i])
        return values[-1]

    knots = [mp.mpf(0)] + [v for v in times if 0 < v < t] + [t]
    return [(a, b, (q(a), (q(b) - q(a)) / (b - a)), 0) for a, b in zip(knots, knots[1:]) if b > a]


def _integral(drive, terms, t):
    total = mp.mpc(0)
    for a, b, (c0, c1), beta_d in _pieces(drive, t):
        for coef, power, beta_k in terms:
            beta = beta_d + beta_k
            poly = (c0, c1, 0) if power == 0 else (a * c0, a * c1 + c0, c1)  # times (a + u)
            local = sum(p * _power_exp(j, beta, b - a) for j, p in enumerate(poly) if p)
            total += coef * mp.exp(beta * a) * local
    return total.real


@mp.workdps(50)
def exact(gamma, drive, t):
    gamma, t = mp.mpf(gamma), mp.mpf(t)
    if gamma == 0:
        a1, a2 = mp.mpf(1), -2 * t
    else:
        k = 2 * mp.sqrt(mp.mpc(gamma))
        a1, a2 = mp.cos(k * t).real, (-2 * mp.sin(k * t) / k).real
    return dict(
        a1=a1, a2=a2, b1=-gamma * a2, b2=a1,
        a3=_integral(drive, _kernel(gamma, "a2"), t),
        b3=_integral(drive, _kernel(gamma, "b2"), t),
        conv_q=_integral(drive, _kernel(gamma, "a2", t), t),
        conv_p=_integral(drive, _kernel(gamma, "b2", t), t),
    )


def computed(gamma, drive, t):
    params = wf.OscillatorParams(gamma, drive)
    c = wf.flow_coefficients(params, t)
    conv_q, conv_p = wf.drive_convolutions(params, t)
    return dict(a1=c.a1, a2=c.a2, b1=c.b1, b2=c.b2, a3=c.a3, b3=c.b3, conv_q=conv_q, conv_p=conv_p)


def assert_matches_oracle(gamma, drive, times, tol=1e-12):
    """Every entry within tol relative, absolute where the exact value is below 1."""
    for t in times:
        ref, got = exact(gamma, drive, t), computed(gamma, drive, t)
        for name in NAMES:
            err = float(abs(got[name] - ref[name])) / max(1.0, float(abs(ref[name])))
            assert err <= tol, (name, gamma, drive, t, got[name], mp.nstr(ref[name], 17))


def oracle_times(gamma, count=10):
    """t with |gamma| t^2 from 1e-16 to 1e3 (gamma > 0) or to e^{2 sqrt(-gamma) t} = e^600."""
    top = 3.0 if gamma > 0 else math.log10(150.0**2)
    return [math.sqrt(s / abs(gamma)) for s in np.logspace(-16.0, top, count)]


@pytest.mark.parametrize("gamma", [s * g for g in GAMMAS for s in (1.0, -1.0)])
def test_constant_drive_flow_matches_oracle(gamma):
    assert_matches_oracle(gamma, wf.Constant(0.7), oracle_times(gamma))


@pytest.mark.parametrize("detuning", [0.0, 1e-7, -1e-7, 1e-3, -1e-3])
@pytest.mark.parametrize("gamma", [s * g for g in GAMMAS for s in (1.0, -1.0)])
def test_cosine_drive_near_resonance_matches_oracle(gamma, detuning):
    drive = wf.Cosine(0.3, 1.1, 2.0 * math.sqrt(abs(gamma)) * (1.0 + detuning))
    assert_matches_oracle(gamma, drive, oracle_times(gamma, 6))


@pytest.mark.parametrize("detuning", [-0.9, -0.4226, -0.4227, 0.7320, 0.7321, 2.0])
@pytest.mark.parametrize("gamma", [1e-14, 1e-8 * (1 + 1e-4), 1.0, 25.0])
def test_cosine_drive_off_resonance_matches_oracle(gamma, detuning):
    # the closed form switches from sinc products to quotients where
    # gamma t^2 / (Omega t/2)^2 leaves [1/3, 3], i.e. between the detuning pairs
    drive = wf.Cosine(0.3, 1.1, 2.0 * math.sqrt(gamma) * (1.0 + detuning))
    assert_matches_oracle(gamma, drive, oracle_times(gamma, 6))


@pytest.mark.parametrize("omega_d", [0.0, 1e-6, 1.3, 40.0])
def test_cosine_drive_at_zero_curvature_matches_oracle(omega_d):
    assert_matches_oracle(0.0, wf.Cosine(0.3, 1.1, omega_d), [0.0, 1e-3, 0.1, 1.0, 7.3, 1e3])


@pytest.mark.parametrize(
    "times, values",
    [
        ([0.0, 0.7, 1.5, 2.0, 3.1], [0.2, -0.4, 0.9, 0.1, -0.3]),
        ([0.8, 1.1, 2.6], [0.5, -0.7, 0.3]),  # starts after t = 0
        (np.linspace(0.0, 3.0, 41), 0.3 + 0.9 * np.cos(1.6 * np.linspace(0.0, 3.0, 41))),
    ],
)
@pytest.mark.parametrize("gamma", [1e-14, -1e-14, 5e-9, 1e-6, -1e-6, 1.0, -1.0, -0.3, 0.0, 25.0])
def test_tabulated_drive_matches_exact_piecewise_linear_integral(times, values, gamma):
    drive = wf.Tabulated(np.asarray(times), np.asarray(values))
    assert_matches_oracle(gamma, drive, [0.0, 1e-9, 0.5, 0.8, 1.1, 2.6, 3.0, 7.5])


def test_defects_of_the_former_series_branch_are_closed():
    # the series in gamma t^2 was used for |gamma| < 1e-8 whatever gamma t^2
    c = wf.flow_coefficients(wf.OscillatorParams(5e-9), 3e4)
    assert abs(c.a1 - float(exact(5e-9, wf.Constant(0.0), 3e4)["a1"])) <= 1e-12
    assert c.a1 == pytest.approx(-0.452661857, abs=1e-9)
    # just above the old seam (a1 - 1)/(2 gamma) cancelled
    drive = wf.Constant(0.7)
    ref = exact(1.0001e-8, drive, 0.5)["a3"]
    got = wf.flow_coefficients(wf.OscillatorParams(1.0001e-8, drive), 0.5).a3
    assert float(abs((got - ref) / ref)) <= 1e-13


@pytest.mark.parametrize(
    "p0, drive",
    [(4.0, wf.Constant(0.0)), (5.0, wf.Constant(0.0)), (6.2, wf.Constant(0.3)),
     (4.5, wf.Cosine(0.2, 0.6, 1.7))],
)
def test_survival_matches_oracle_up_to_omega_t_1000(p0, drive):
    a, omega, hbar = -5.0, 1.03, 0.9
    scenario = wf.TunnelScenario(wf.GaussianPacket(a, p0, hbar), omega, drive)
    for omega_t in (1.0, 10.0, 180.0, 360.0, 1000.0):
        t = omega_t / omega
        e = exact(-omega * omega, drive, t)
        with mp.workdps(50):
            v = a * e["b2"] - p0 * e["a2"] + e["conv_q"]
            ref = mp.erfc(v / mp.sqrt(hbar * (e["a2"] ** 2 + e["b2"] ** 2))) / 2
        assert abs(wf.survival_probability(scenario, t) - float(ref)) <= 1e-12

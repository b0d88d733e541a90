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
    """Every entry within tol relative, absolute where the exact value is below 1; an array
    of times is evaluated in one call."""
    at_once = computed(gamma, drive, times) if isinstance(times, np.ndarray) else None
    for i, t in enumerate(times):
        ref = exact(gamma, drive, t)
        got = computed(gamma, drive, t) if at_once is None else {k: v[i] for k, v in at_once.items()}
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
    assert_matches_oracle(gamma, drive, np.linspace(0.0, 1.25 * times[-1], 9))


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
    times = np.array([1.0, 10.0, 180.0, 360.0, 1000.0]) / omega
    at_once = wf.survival_probability(scenario, times)
    for t, got in zip(times, at_once):
        e = exact(-omega * omega, drive, t)
        with mp.workdps(50):
            v = a * e["b2"] - p0 * e["a2"] + e["conv_q"]
            ref = mp.erfc(v / mp.sqrt(hbar * (e["a2"] ** 2 + e["b2"] ** 2))) / 2
        assert abs(wf.survival_probability(scenario, t) - float(ref)) <= 1e-12
        assert abs(got - float(ref)) <= 1e-12


@pytest.mark.parametrize("two_w_t", [400.0, 700.0])
def test_expectation_position_matches_oracle_while_representable(two_w_t):
    # A ~ e^{4 w t} has left the double range at both times; <x>_t ~ e^{2 w t} has not
    packet, drive, w = wf.GaussianPacket(-5.0, 4.0, 0.9), wf.Cosine(0.2, 0.6, 1.7), 1.0
    params = wf.OscillatorParams(-w * w, drive, packet.hbar)
    t = two_w_t / (2.0 * w)
    e = exact(-w * w, drive, t)
    with mp.workdps(50):
        ref = float(packet.a * e["b2"] - packet.p0 * e["a2"] + e["conv_q"])
    got = wf.expectation_position(packet, params, t)
    assert abs(got - ref) <= 1e-12 * abs(ref)
    with pytest.raises(wf.NumericalConsistencyError):
        wf.packet_shape(packet, params, t)


def test_expectation_position_raises_past_the_double_range():
    params = wf.OscillatorParams(-1.0, wf.Cosine(0.2, 0.6, 1.7), 0.9)
    with pytest.raises(wf.NumericalConsistencyError, match="the packet centre left"):
        wf.expectation_position(wf.GaussianPacket(-5.0, 4.0, 0.9), params, 360.0)


# ---------------------------------------------------------------------------
# Gaussian observables of the inverted oscillator gamma = -1 (w = 1)

PACKET = wf.GaussianPacket(-1.0, 0.7, 1.0)
DRIVE = wf.Cosine(0.2, 0.6, 1.7)
UNSTABLE = wf.OscillatorParams(-1.0, DRIVE, PACKET.hbar)


def _exact_packet_field(e, x, xi):
    """W0 of PACKET at the exact backward image of the double point (x, xi)."""
    with mp.workdps(50):
        X = e["a1"] * x + e["a2"] * xi + e["a3"]
        Xi = e["b1"] * x + e["b2"] * xi + e["b3"]
        h = PACKET.hbar
        return mp.exp(-((X - PACKET.a) ** 2 + (Xi - PACKET.p0) ** 2) / h) / (mp.pi * h)


@pytest.mark.parametrize("t", [1.0, 3.0, 5.0, 8.0])
def test_wigner_evolved_matches_oracle_at_gamma_minus_one(t):
    # The backward image of a point near the packet, |x| ~ e^{2 w t}, carries an absolute
    # rounding error ~ eps e^{4 w t}: at the forward image of (a, p0), the peak, it enters
    # to second order, at the forward image of (a + 0.3, p0 - 0.2) to first order.
    e = exact(-1.0, wf.Constant(0.0), t)
    for shift, tol in (((0.0, 0.0), 1e-9 if t <= 5.0 else 1e-6),
                       ((0.3, -0.2), 1e-9 if t <= 5.0 else 1e-3)):
        with mp.workdps(50):
            u, v = PACKET.a + shift[0] - e["a3"], PACKET.p0 + shift[1] - e["b3"]
            x, xi = float(e["b2"] * u - e["a2"] * v), float(-e["b1"] * u + e["a1"] * v)
        ref = _exact_packet_field(e, x, xi)
        got = float(wf.wigner_evolved(PACKET, wf.OscillatorParams(-1.0), x, xi, t))
        assert abs(got - ref) <= tol * ref, (shift, got, mp.nstr(ref, 17))


@pytest.mark.parametrize("two_w_t", [20.0, 300.0, 600.0, 700.0])
def test_density_and_modulus_match_oracle_out_to_two_w_t_700(two_w_t):
    # the density peak ~ e^{-2 w t} is still a normal double at 2 w t = 700, while the
    # unscaled width A ~ e^{4 w t} left the double range at 4 w t ~ 709
    t = two_w_t / 2.0
    e = exact(-1.0, DRIVE, t)
    h = PACKET.hbar
    with mp.workdps(50):
        v = PACKET.a * e["b2"] - PACKET.p0 * e["a2"] + e["conv_q"]
        A = e["a2"] ** 2 + e["b2"] ** 2
        near = [float(v + k * mp.sqrt(h * A)) for k in (-1.5, 0.0, 0.7, 2.0)]
        # x e^{-L} ~ 0 once 2 w t >> 345: the left tail, where the phase is still finite
        far = [-1e150, 0.0, 3e149] if two_w_t > 345.0 else []

        def ref(x):
            return mp.exp(-((x - v) ** 2) / (h * A)) / mp.sqrt(mp.pi * h * A)

    xs = np.array(near + far)
    got = wf.density(PACKET, UNSTABLE, xs, t)
    refs = [ref(x) for x in xs.tolist()]
    for x, g, r in zip(xs, got, refs):
        assert r > 1e-307 and abs(g - r) <= 1e-9 * r, (x, g, mp.nstr(r, 17))
    # |psi|^2 alike, where the phase ~ x^2 stays in the double range (|x| below ~1e154)
    finite = slice(None) if two_w_t < 345.0 else slice(len(near), None)
    modulus = np.abs(wf.wavefunction(PACKET, UNSTABLE, xs[finite], t)) ** 2
    for g, r in zip(modulus, refs[finite]):
        assert abs(g - r) <= 1e-9 * r
    if two_w_t > 360.0:
        with pytest.raises(wf.NumericalConsistencyError):
            wf.wavefunction(PACKET, UNSTABLE, xs[:len(near)], t)


def test_backward_image_past_the_double_range_raises():
    # at t = 354 the flow (~e^708) is finite, the image of (20, -20) is not
    with pytest.raises(wf.NumericalConsistencyError):
        wf.wigner_evolved(PACKET, wf.OscillatorParams(-1.0), 20.0, -20.0, 354.0)
    with pytest.raises(wf.ConfigurationError, match="nan"):
        wf.wigner_evolved(PACKET, wf.OscillatorParams(-1.0), np.array([0.0, math.nan]), 0.0, 1.0)

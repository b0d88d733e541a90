"""Closed-form Gaussian packet dynamics."""

import math
import warnings

import numpy as np
import pytest

import wignerflow as wf
from wignerflow.errors import ConfigurationError, NumericalConsistencyError

FREE = wf.OscillatorParams(0.0, wf.Constant(0.0), 1.0)


def test_shape_at_time_zero():
    packet = wf.GaussianPacket(-1.3, 0.8, 1.0)
    s = wf.packet_shape(packet, wf.OscillatorParams(-0.7, wf.Constant(0.2), 1.0), 0.0)
    assert s.A == 1.0
    assert s.v == packet.a
    assert s.Bc1 == 0.0
    assert s.Bc0 == -2.0 * packet.p0
    assert s.Cc2 == 1.0
    assert s.Cc1 == pytest.approx(-2.0 * packet.a)
    assert s.Cc0 == pytest.approx(packet.a**2 + packet.p0**2)


def test_harmonic_shape_closed_forms():
    omega = 1.2
    packet = wf.GaussianPacket(0.7, -0.4, 1.0)
    params = wf.OscillatorParams(omega**2, wf.Constant(0.0), 1.0)
    for t in (0.3, 1.1, 2.6):
        s = wf.packet_shape(packet, params, t)
        assert s.A == pytest.approx(
            math.sin(2 * omega * t) ** 2 / omega**2 + math.cos(2 * omega * t) ** 2,
            rel=1e-12,
        )
        assert s.v == pytest.approx(
            packet.a * math.cos(2 * omega * t)
            + packet.p0 / omega * math.sin(2 * omega * t),
            rel=1e-12, abs=1e-12,
        )


def test_driven_inverted_mean_matches_printed_formula():
    omega, lam, b, omega_d = 1.0, 0.5, 0.3, 2.0
    packet = wf.GaussianPacket(-1.0, 0.8, 1.0)
    params = wf.OscillatorParams(-omega**2, wf.Cosine(lam, b, omega_d), 1.0)
    for t in (0.4, 1.2, 2.0):
        ch, sh = math.cosh(2 * omega * t), math.sinh(2 * omega * t)
        printed = -(
            lam * (ch - 1) - 2 * packet.a * omega**2 * ch - 2 * omega * packet.p0 * sh
        ) / (2 * omega**2) + 2 * b * (math.cos(omega_d * t) - ch) / (omega_d**2 + 4 * omega**2)
        assert wf.expectation_position(packet, params, t) == pytest.approx(
            printed, rel=1e-10
        )


def test_shape_requires_matching_hbar():
    with pytest.raises(ConfigurationError):
        wf.packet_shape(wf.GaussianPacket(0.0, 0.0, 1.0),
                        wf.OscillatorParams(0.0, wf.Constant(0.0), 2.0), 0.5)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_peak_value():
    packet = wf.GaussianPacket(-0.7, 1.1, 0.7)
    params = wf.OscillatorParams(-1.0, wf.Constant(0.1), 0.7)
    t = 0.8
    s = wf.packet_shape(packet, params, t)
    assert float(wf.density(packet, params, s.v, t)) == pytest.approx(
        1.0 / math.sqrt(math.pi * packet.hbar * s.A), rel=1e-13
    )


def test_free_density_closed_form():
    packet = wf.GaussianPacket(0.0, 0.0, 1.0)
    xs = np.linspace(-4.0, 4.0, 41)
    for t in (0.0, 0.6, 1.4):
        target = np.exp(-xs * xs / (4 * t * t + 1)) / math.sqrt(math.pi * (4 * t * t + 1))
        np.testing.assert_allclose(wf.density(packet, FREE, xs, t), target, rtol=1e-12)


def test_density_integrates_to_one_random_draws():
    rng = np.random.default_rng(9)
    for _ in range(5):
        packet = wf.GaussianPacket(rng.uniform(-2, 2), rng.uniform(-2, 2),
                                   rng.uniform(0.3, 2.0))
        params = wf.OscillatorParams(rng.uniform(-1.5, 1.5),
                                     wf.Cosine(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                               rng.uniform(0.5, 3.0)), packet.hbar)
        t = rng.uniform(0.0, 1.5)
        s = wf.packet_shape(packet, params, t)
        width = math.sqrt(packet.hbar * s.A)
        xs = np.linspace(s.v - 9 * width, s.v + 9 * width, 20001)
        mass = np.trapezoid(wf.density(packet, params, xs, t), xs)
        assert mass == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# wavefunction
# ---------------------------------------------------------------------------

def test_wavefunction_reduces_to_initial_packet():
    packet = wf.GaussianPacket(-0.9, 1.3, 1.0)
    grid = wf.Grid1D.symmetric(12.0, 801)
    xs = grid.nodes()
    psi0 = wf.CoherentGaussian(packet.a, packet.p0, 1.0).psi(xs)
    psi = wf.wavefunction(packet, FREE, xs, 0.0)
    inner = grid.step * np.sum(np.conj(psi) * psi0)
    assert abs(inner) >= 1.0 - 1e-10


def test_wavefunction_modulus_matches_density():
    packet = wf.GaussianPacket(-1.0, 0.8, 1.0)
    params = wf.OscillatorParams(-1.0, wf.Cosine(0.5, 0.3, 2.0), 1.0)
    rng = np.random.default_rng(2)
    xs = rng.uniform(-5.0, 5.0, 64)
    for t in (0.0, 0.7, 1.6):
        dens = wf.density(packet, params, xs, t)
        psi = wf.wavefunction(packet, params, xs, t)
        assert np.max(np.abs(np.abs(psi) ** 2 - dens)) <= 1e-12


def test_free_stark_wavefunction_matches_printed_form():
    lam = 0.7
    packet = wf.GaussianPacket(-0.5, 0.9, 1.0)
    params = wf.OscillatorParams(0.0, wf.Constant(lam), 1.0)
    grid = wf.Grid1D.symmetric(14.0, 1201)
    xs = grid.nodes()
    t = 0.8
    a, p0 = packet.a, packet.p0
    denom = 4 * t * t + 1
    phase = ((xs - 2 * lam * t * t - 2 * a) * xs * t + p0 * xs - lam * t * xs) / denom
    printed = (
        (math.pi * denom) ** -0.25
        * np.exp(1j * phase)
        * np.exp(-((xs + lam * t * t - a - 2 * p0 * t) ** 2) / (2 * denom))
    )
    psi = wf.wavefunction(packet, params, xs, t)
    inner = grid.step * np.sum(np.conj(psi) * printed)
    norm = grid.step * np.sum(np.abs(printed) ** 2)
    assert abs(inner) / norm >= 1.0 - 1e-10  # equal up to a global phase


def test_wavefunction_transform_matches_evolved_field():
    packet = wf.GaussianPacket(-0.6, 0.5, 1.0)
    params = wf.OscillatorParams(-0.49, wf.Cosine(0.2, 0.4, 1.5), 1.0)
    t = 0.6
    grid = wf.Grid1D.symmetric(17.0, 1025)
    wave = wf.WaveSample(grid, wf.wavefunction(packet, params, grid.nodes(), t), 1.0)
    ps = wf.natural_grid(grid, 1.0)
    field = wf.wigner_transform(wave, ps)
    closed = wf.wigner_evolved(
        packet, params, ps.x_grid.nodes()[:, None], ps.xi_grid.nodes()[None, :], t
    )
    assert np.max(np.abs(field.values - closed)) <= 1e-6


# ---------------------------------------------------------------------------
# evolved field
# ---------------------------------------------------------------------------

def test_evolved_field_initial_peak():
    packet = wf.GaussianPacket(-1.1, 0.4, 0.5)
    params = wf.OscillatorParams(-1.0, wf.Constant(0.0), 0.5)
    val = float(wf.wigner_evolved(packet, params, packet.a, packet.p0, 0.0))
    assert val == pytest.approx(1.0 / (math.pi * packet.hbar), rel=1e-13)


def test_evolved_field_marginal_is_density():
    packet = wf.GaussianPacket(-1.0, 0.8, 1.0)
    params = wf.OscillatorParams(-1.0, wf.Cosine(0.5, 0.3, 2.0), 1.0)
    t = 1.2
    xs = np.linspace(-6.0, 6.0, 13)
    xis = np.linspace(-60.0, 60.0, 48001)
    vals = wf.wigner_evolved(packet, params, xs[:, None], xis[None, :], t)
    marginal = np.trapezoid(vals, xis, axis=1)
    dens = wf.density(packet, params, xs, t)
    assert np.max(np.abs(marginal - dens)) <= 1e-8


def test_evolved_field_mass_is_conserved():
    packet = wf.GaussianPacket(0.3, -0.6, 1.0)
    params = wf.OscillatorParams(0.8, wf.Cosine(0.1, 0.7, 2.3), 1.0)
    for t in (0.0, 0.9, 2.2):
        s = wf.packet_shape(packet, params, t)
        wx = math.sqrt(packet.hbar * max(s.A, s.Cc2, 1.0))
        xs = np.linspace(s.v - 12 * wx, s.v + 12 * wx, 1201)
        xis = np.linspace(-12 * wx - 5, 12 * wx + 5, 1301)
        vals = wf.wigner_evolved(packet, params, xs[:, None], xis[None, :], t)
        mass = np.trapezoid(np.trapezoid(vals, xis, axis=1), xs)
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_shape_identity_unit_determinant():
    packet = wf.GaussianPacket(-2.0, 1.5, 1.0)
    rng = np.random.default_rng(21)
    for _ in range(12):
        gamma = rng.uniform(-1.5, 1.5)
        t = rng.uniform(0.0, 1.8)
        params = wf.OscillatorParams(gamma, wf.Cosine(0.4, 0.6, 1.3), 1.0)
        s = wf.packet_shape(packet, params, t)
        assert s.A > 0.0
        assert 4.0 * s.Cc2 * s.A - s.Bc1**2 == pytest.approx(4.0, abs=1e-9)


def test_harmonic_density_periodicity():
    omega = 1.3
    packet = wf.GaussianPacket(0.9, -0.5, 1.0)
    params = wf.OscillatorParams(omega**2, wf.Constant(0.0), 1.0)
    xs = np.linspace(-4.0, 4.0, 41)
    period = math.pi / omega
    for t in (0.2, 0.9):
        np.testing.assert_allclose(
            wf.density(packet, params, xs, t),
            wf.density(packet, params, xs, t + period),
            rtol=1e-9, atol=1e-12,
        )


# ---------------------------------------------------------------------------
# expectation value
# ---------------------------------------------------------------------------

def test_expectation_position_examples():
    packet = wf.GaussianPacket(-1.7, 0.6, 1.0)
    params = wf.OscillatorParams(1.44, wf.Constant(0.0), 1.0)
    assert wf.expectation_position(packet, params, 0.0) == packet.a
    omega = 1.2
    t = 0.9
    assert wf.expectation_position(packet, params, t) == pytest.approx(
        packet.a * math.cos(2 * omega * t) + packet.p0 / omega * math.sin(2 * omega * t),
        rel=1e-12,
    )


def test_expectation_position_matches_density_moment():
    packet = wf.GaussianPacket(-0.8, 1.1, 1.0)
    params = wf.OscillatorParams(-0.5, wf.Cosine(0.3, 0.2, 1.4), 1.0)
    t = 1.1
    s = wf.packet_shape(packet, params, t)
    width = math.sqrt(packet.hbar * s.A)
    xs = np.linspace(s.v - 10 * width, s.v + 10 * width, 40001)
    moment = np.trapezoid(xs * wf.density(packet, params, xs, t), xs)
    assert moment == pytest.approx(wf.expectation_position(packet, params, t), abs=1e-7)


def test_expectation_position_follows_forward_classical_flow():
    # Ehrenfest for quadratic Hamiltonians: <x>_t is the forward trajectory
    # of (a, p0), i.e. the inverse of the backward characteristic map.
    packet = wf.GaussianPacket(-2.0, 1.5, 1.0)
    params = wf.OscillatorParams(-0.8, wf.Cosine(0.4, 0.6, 1.3), 1.0)
    for t in (0.5, 1.2, 2.4):
        c = wf.flow_coefficients(params, t)
        fq, _ = wf.forward_map(c, packet.a, packet.p0)
        assert wf.expectation_position(packet, params, t) == pytest.approx(
            float(fq), rel=1e-10
        )


def test_mean_satisfies_classical_equation_of_motion():
    # v'' = -4 gamma v - 2 Q(t) in 2m = 1 units, second-order in dt
    packet = wf.GaussianPacket(-2.0, 1.5, 1.0)
    params = wf.OscillatorParams(-0.8, wf.Cosine(0.4, 0.6, 1.3), 1.0)
    t = 1.0

    def residual(dt):
        vm = wf.expectation_position(packet, params, t - dt)
        v0 = wf.expectation_position(packet, params, t)
        vp = wf.expectation_position(packet, params, t + dt)
        acc = (vp - 2 * v0 + vm) / dt**2
        return abs(acc + 4 * params.gamma * v0 + 2 * float(wf.drive_value(params.drive, t)))

    r1, r2 = residual(2e-3), residual(1e-3)
    assert r1 <= 1e-4
    assert 2.0 <= r1 / r2 <= 8.0  # second order (ratio ~4)


def test_shape_raises_where_it_leaves_the_double_range():
    packet = wf.GaussianPacket(-5.0, 4.0, 1.0)
    params = wf.OscillatorParams(-1.0, wf.Constant(0.0), 1.0)
    s = wf.packet_shape(packet, params, 170.0)  # A ~ e^{4 omega t} = e^680
    assert math.isfinite(s.A) and math.isfinite(s.Cc0)
    for t in (180.0, 1000.0):
        with pytest.raises(NumericalConsistencyError):
            wf.packet_shape(packet, params, t)


def test_shape_overflow_names_the_packets_quadratic_terms():
    # the flow is the identity at t = 0; the centre's square C0 = p0^2 overflows
    cases = [(wf.GaussianPacket(-1.0, -1e155), 0.0), (wf.GaussianPacket(-5.0, 4.0), 180.0)]
    for packet, t in cases:
        with pytest.raises(NumericalConsistencyError, match="the packet's quadratic terms left"):
            wf.packet_shape(packet, wf.OscillatorParams(-1.0), t)


@pytest.mark.parametrize("t", [1.0, np.array([0.5, 1.0, 2.5])], ids=["float", "array"])
def test_unit_scale_flows_keep_the_range_rule(t):
    # gamma >= 0 flows carry no scale (e^0): terms past the double range still raise, with
    # no warning, and name the scale
    strong = wf.OscillatorParams(1.0, wf.Constant(1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalConsistencyError,
                           match=r"^the packet's quadratic terms left the double range at scale "
                                 r"e\^0$"):
            wf.packet_shape(wf.GaussianPacket(0.0, 0.0), strong, t)
        with pytest.raises(NumericalConsistencyError,
                           match=r"^the packet centre left the double range at scale e\^0$"):
            wf.expectation_position(wf.GaussianPacket(1.5e308, -1.5e308), wf.OscillatorParams(1.0),
                                    t)


def test_unit_scale_arrays_are_fresh_and_writable():
    params = wf.OscillatorParams(0.5, wf.Constant(0.3))
    t = np.linspace(0.0, 2.0, 4)
    first = wf.flow_coefficients(params, t)
    first.a3[0] = 7.0  # the caller's copy, not the stored flow
    assert wf.flow_coefficients(params, t).a3[0] == 0.0


def test_density_is_zero_at_an_infinite_x_once_the_flow_scale_underflows():
    packet = wf.GaussianPacket(-1.0, 0.7)
    params = wf.OscillatorParams(-1.0)
    xs = np.array([-math.inf, -0.4, 0.0, 2.5, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (100.0, 380.0):  # e^{-L} = e^{-2 w t} underflows to 0 from 2 w t ~ 745
            got = wf.density(packet, params, xs, t)
            assert got[0] == got[-1] == 0.0
            assert got[1:-1].tobytes() == wf.density(packet, params, xs[1:-1], t).tobytes()
            assert wf.density(packet, params, math.inf, t) == 0.0


def test_wavefunction_is_zero_where_its_modulus_underflows_whatever_the_phase():
    packet = wf.GaussianPacket(-1.0, 0.7)
    params = wf.OscillatorParams(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wf.wavefunction(packet, params, 1e200, 1.0) == 0.0  # the phase overflows here
        xs = np.array([-math.inf, -1e200, 0.3, 1e200, math.inf])
        for t in (0.0, 1.0):  # at t = 0 the phase's x^2 coefficient is 0, and 0 * inf is nan
            got = wf.wavefunction(packet, params, xs, t)
            assert np.all(got[[0, 1, 3, 4]] == 0.0)
            assert got[2] == wf.wavefunction(packet, params, 0.3, t) != 0.0
    # at the packet's centre the modulus is not 0, so a phase past the double range raises
    unstable = wf.OscillatorParams(-1.0)
    centre = wf.expectation_position(packet, unstable, 190.0)
    assert wf.density(packet, unstable, centre, 190.0) > 0.0
    with pytest.raises(NumericalConsistencyError):
        wf.wavefunction(packet, unstable, centre, 190.0)


@pytest.mark.parametrize(
    "observable",
    [
        wf.density,
        wf.wavefunction,
        lambda packet, params, x, t: wf.wigner_evolved(packet, params, x, 0.3, t),
    ],
    ids=["density", "wavefunction", "wigner_evolved"],
)
def test_nan_query_point_is_a_configuration_error(observable):
    packet = wf.GaussianPacket(-1.0, 0.7)
    params = wf.OscillatorParams(0.5)
    for x in (math.nan, np.array([-0.4, math.nan, 2.5])):
        with pytest.raises(ConfigurationError):
            observable(packet, params, x, 1.0)


@pytest.mark.parametrize("hbar, t", [(1e300, 1e10), (5e-324, 0.0)])
def test_density_and_psi_past_the_width_range_raise(hbar, t):
    # pi hbar A past the double range (height read as 0) or below the normal doubles
    packet, params = wf.GaussianPacket(-3.0, 2.0, hbar), wf.OscillatorParams(0.0, hbar=hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for observable in (wf.density, wf.wavefunction):
            with pytest.raises(NumericalConsistencyError, match="centre or width"):
                observable(packet, params, 1.0, t)


def test_flat_flow_past_the_width_range_leaks_no_warning():
    # gamma = 0: v = a + 2 p0 t is finite at t = 1e160, A = 1 + 4 t^2 is not
    packet, params = wf.GaussianPacket(-3.0, 2.0), wf.OscillatorParams(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wf.expectation_position(packet, params, 1e160) == 4e160
        with pytest.raises(NumericalConsistencyError, match="centre or width"):
            wf.density(packet, params, 0.0, 1e160)

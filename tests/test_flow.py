"""Flow coefficients, propagation, classical flow, residual diagnostics."""

import math

import numpy as np
import pytest
import scipy.integrate

import wignerflow as wf
from wignerflow.errors import ConfigurationError, NumericalConsistencyError
from wignerflow.flow import _entries

COEFF_NAMES = ("a1", "a2", "a3", "b1", "b2", "b3")


def coeffs_tuple(c):
    return tuple(getattr(c, k) for k in COEFF_NAMES)


def test_identity_at_time_zero():
    for gamma in (-2.0, 0.0, 3.5):
        params = wf.OscillatorParams(gamma, wf.Cosine(0.3, 0.7, 1.1), 1.0)
        c = wf.flow_coefficients(params, 0.0)
        assert coeffs_tuple(c) == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        wf.flow_coefficients(wf.OscillatorParams(1.0), -0.1)


def test_undriven_inverted_oscillator_coefficients():
    # gamma = -omega^2 with omega = 1 at t = 1: hyperbolic entries.  The
    # Wronskian a2 b1 - a1 b2 = -1 forces b1 = -sinh(2), the analytic
    # continuation of sqrt(gamma) sin(2 sqrt(gamma) t).
    c = wf.flow_coefficients(wf.OscillatorParams(-1.0), 1.0)
    assert c.a1 == pytest.approx(math.cosh(2.0), rel=1e-14)
    assert c.a2 == pytest.approx(-math.sinh(2.0), rel=1e-14)
    assert c.b1 == pytest.approx(-math.sinh(2.0), rel=1e-14)
    assert c.b2 == pytest.approx(math.cosh(2.0), rel=1e-14)
    assert c.a3 == 0.0 and c.b3 == 0.0
    assert c.wronskian() == pytest.approx(-1.0, abs=1e-12)


def test_harmonic_coefficients_are_trigonometric():
    omega = 1.3
    t = 0.9
    c = wf.flow_coefficients(wf.OscillatorParams(omega**2), t)
    assert c.a1 == pytest.approx(math.cos(2 * omega * t), rel=1e-14)
    assert c.a2 == pytest.approx(-math.sin(2 * omega * t) / omega, rel=1e-14)
    assert c.b1 == pytest.approx(omega * math.sin(2 * omega * t), rel=1e-14)


def test_free_stark_drive_terms():
    lam = 0.8
    t = 1.7
    c = wf.flow_coefficients(wf.OscillatorParams(0.0, wf.Constant(lam)), t)
    assert c.a3 == pytest.approx(-lam * t * t, rel=1e-12)
    assert c.b3 == pytest.approx(lam * t, rel=1e-12)
    assert (c.a1, c.a2, c.b1, c.b2) == (1.0, -2.0 * t, 0.0, 1.0)


def test_wronskian_across_regimes_seeded():
    rng = np.random.default_rng(42)
    ts = np.linspace(0.0, 10.0, 21)
    gammas = np.concatenate([
        rng.uniform(1e-3, 25.0, 20),            # trigonometric branch
        -rng.uniform(1e-3, 0.09, 20),           # hyperbolic branch (2 w t <= 6)
        rng.uniform(-1e-8, 1e-8, 10),           # series branch
    ])
    for gamma in gammas:
        params = wf.OscillatorParams(float(gamma), wf.Constant(0.4))
        for t in ts:
            c = wf.flow_coefficients(params, float(t))
            assert abs(c.wronskian() + 1.0) <= 1e-10


def _quad_oracle(gamma, drive, t, entry_index):
    def f(s):
        return float(wf.drive_value(drive, s)) * float(_entries(gamma, s)[entry_index])

    val, err = scipy.integrate.quad(f, 0.0, t, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    return val


@pytest.mark.parametrize("gamma", [2.0, -1.5, 0.0, -0.25])
def test_cosine_drive_closed_forms_match_quadrature(gamma):
    drive = wf.Cosine(0.7, 1.3, 2.1)
    params = wf.OscillatorParams(gamma, drive)
    for t in (0.8, 2.3):
        c = wf.flow_coefficients(params, t)
        assert c.a3 == pytest.approx(_quad_oracle(gamma, drive, t, 1), abs=1e-10)
        assert c.b3 == pytest.approx(_quad_oracle(gamma, drive, t, 3), abs=1e-10)


def test_inverted_cosine_drive_matches_printed_hyperbolic_forms():
    omega, lam, b, omega_d = 0.9, 0.4, 1.1, 1.7
    params = wf.OscillatorParams(-omega**2, wf.Cosine(lam, b, omega_d))
    for t in (0.5, 1.4, 2.2):
        c = wf.flow_coefficients(params, t)
        ch, sh = math.cosh(2 * omega * t), math.sinh(2 * omega * t)
        d = 4 * omega**2 + omega_d**2
        a3 = lam / (2 * omega**2) * (1 - ch) - b * (
            omega_d * sh * math.sin(omega_d * t)
            + 2 * omega * (ch * math.cos(omega_d * t) - 1)
        ) / (omega * d)
        b3 = lam / (2 * omega) * sh + b * (
            2 * omega * math.cos(omega_d * t) * sh
            + omega_d * math.sin(omega_d * t) * ch
        ) / d
        assert c.a3 == pytest.approx(a3, rel=1e-12, abs=1e-12)
        assert c.b3 == pytest.approx(b3, rel=1e-12, abs=1e-12)


def test_near_resonant_cosine_falls_back_to_quadrature():
    omega_d = 2.0
    gamma = omega_d**2 / 4.0  # exactly resonant forced harmonic oscillator
    drive = wf.Cosine(0.0, 1.0, omega_d)
    params = wf.OscillatorParams(gamma, drive)
    t = 1.3
    c = wf.flow_coefficients(params, t)
    assert c.a3 == pytest.approx(_quad_oracle(gamma, drive, t, 1), abs=1e-9)
    assert c.b3 == pytest.approx(_quad_oracle(gamma, drive, t, 3), abs=1e-9)


def test_tabulated_drive_reproduces_cosine():
    lam, b, omega_d = 0.3, 0.9, 1.6
    ts = np.linspace(0.0, 3.0, 1501)
    drive_tab = wf.Tabulated(ts, lam + b * np.cos(omega_d * ts))
    drive_cos = wf.Cosine(lam, b, omega_d)
    for gamma in (1.2, -0.7):
        c_tab = wf.flow_coefficients(wf.OscillatorParams(gamma, drive_tab), 2.5)
        c_cos = wf.flow_coefficients(wf.OscillatorParams(gamma, drive_cos), 2.5)
        # limited by the linear interpolation of the tabulated drive,
        # amplified by the hyperbolic kernel for gamma < 0
        assert c_tab.a3 == pytest.approx(c_cos.a3, abs=1e-4)
        assert c_tab.b3 == pytest.approx(c_cos.b3, abs=1e-4)


def test_tabulated_validation():
    with pytest.raises(ConfigurationError):
        wf.Tabulated(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ConfigurationError):
        wf.Tabulated(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def test_tabulated_drive_extends_constant_beyond_table():
    lam = 0.6
    drive = wf.Tabulated(np.array([0.0, 1.0]), np.array([lam, lam]))
    for gamma in (0.9, -0.3):
        c_tab = wf.flow_coefficients(wf.OscillatorParams(gamma, drive), 2.0)
        c_const = wf.flow_coefficients(wf.OscillatorParams(gamma, wf.Constant(lam)), 2.0)
        assert c_tab.a3 == pytest.approx(c_const.a3, abs=1e-9)
        assert c_tab.b3 == pytest.approx(c_const.b3, abs=1e-9)


def test_gamma_branch_seam_continuity():
    eps = 1e-8
    for t in (0.5, 2.0, 10.0):
        for sign in (1.0, -1.0):
            lo = wf.flow_coefficients(
                wf.OscillatorParams(sign * eps * (1 - 1e-9), wf.Constant(0.7)), t
            )
            hi = wf.flow_coefficients(
                wf.OscillatorParams(sign * eps, wf.Constant(0.7)), t
            )
            for name in COEFF_NAMES:
                assert abs(getattr(lo, name) - getattr(hi, name)) <= 1e-8


def test_backward_map_examples():
    ident = wf.flow_coefficients(wf.OscillatorParams(0.5), 0.0)
    assert wf.backward_map(ident, 1.2, -0.7) == (1.2, -0.7)

    c = wf.flow_coefficients(wf.OscillatorParams(0.0, wf.Constant(1.0)), 1.0)
    X, XI = wf.backward_map(c, 0.0, 0.0)
    assert X == pytest.approx(-1.0, abs=1e-12)
    assert XI == pytest.approx(1.0, abs=1e-12)


def test_backward_map_is_area_preserving():
    rng = np.random.default_rng(5)
    for _ in range(10):
        gamma = rng.uniform(-1.0, 2.0)
        t = rng.uniform(0.0, 2.0)
        c = wf.flow_coefficients(wf.OscillatorParams(gamma, wf.Cosine(0.2, 0.5, 1.3)), t)
        jac = c.a1 * c.b2 - c.a2 * c.b1
        assert jac == pytest.approx(1.0, abs=1e-12)


def test_forward_map_inverts_backward_map():
    c = wf.flow_coefficients(wf.OscillatorParams(-0.8, wf.Cosine(0.4, 0.6, 1.9)), 1.7)
    x, xi = 0.9, -1.4
    X, XI = wf.backward_map(c, x, xi)
    x2, xi2 = wf.forward_map(c, X, XI)
    assert x2 == pytest.approx(x, abs=1e-12)
    assert xi2 == pytest.approx(xi, abs=1e-12)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def _small_ps(half_width=6.0, count=61):
    g = wf.Grid1D.symmetric(half_width, count)
    return wf.PhaseSpaceGrid(g, wf.symmetric_xi_grid(half_width, count))


def test_propagate_at_time_zero_samples_initial():
    state = wf.CoherentGaussian(0.4, -0.2, 1.0)
    ps = _small_ps()
    params = wf.OscillatorParams(-1.0, wf.Constant(0.3), 1.0)
    field = wf.propagate_field(state.wigner, params, 0.0, ps)
    exact = state.wigner(ps.x_grid.nodes()[:, None], ps.xi_grid.nodes()[None, :])
    assert np.max(np.abs(field.values - exact)) <= 1e-14


def test_harmonic_eigenstate_is_stationary():
    omega = 0.8
    state = wf.HarmonicEigen(2, omega, 1.0, normalized=True)
    params = wf.OscillatorParams(omega**2, wf.Constant(0.0), 1.0)
    ps = _small_ps()
    base = wf.propagate_field(state.wigner, params, 0.0, ps)
    for t in (0.7, 2.9):
        moved = wf.propagate_field(state.wigner, params, t, ps)
        assert np.max(np.abs(moved.values - base.values)) <= 1e-12


def test_propagated_gaussian_matches_closed_form_evolution():
    packet = wf.GaussianPacket(-0.8, 0.6, 1.0)
    params = wf.OscillatorParams(-1.0, wf.Constant(0.0), 1.0)
    ps = _small_ps(8.0, 81)
    t = 0.9
    prop = wf.propagate_field(
        wf.CoherentGaussian(packet.a, packet.p0, 1.0).wigner, params, t, ps
    )
    closed = wf.wigner_evolved_field(packet, params, t, ps)
    assert np.max(np.abs(prop.values - closed.values)) <= 1e-10


def test_propagate_conserves_mass():
    state = wf.CoherentGaussian(0.0, 0.5, 1.0)
    params = wf.OscillatorParams(-0.25, wf.Cosine(0.2, 0.3, 1.7), 1.0)
    ps = _small_ps(16.0, 641)
    masses = [
        wf.total_mass(wf.propagate_field(state.wigner, params, t, ps))
        for t in (0.0, 0.6, 1.2)
    ]
    for mass in masses:
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_propagate_gridded_initial_with_interpolation():
    state = wf.CoherentGaussian(0.0, 0.0, 1.0)
    ps = _small_ps(8.0, 321)
    initial = wf.propagate_field(state.wigner, wf.OscillatorParams(0.0), 0.0, ps)
    params = wf.OscillatorParams(0.0, wf.Constant(0.0), 1.0)
    t = 0.4
    from_grid = wf.propagate_field(initial, params, t, ps)
    from_closed = wf.propagate_field(state.wigner, params, t, ps)
    # bilinear interpolation accuracy O(step^2)
    assert np.max(np.abs(from_grid.values - from_closed.values)) <= 5e-4


def test_field_evaluator_zero_extension():
    state = wf.CoherentGaussian(0.0, 0.0, 1.0)
    ps = _small_ps(6.0, 61)
    field = wf.propagate_field(state.wigner, wf.OscillatorParams(0.0), 0.0, ps)
    ev = wf.field_evaluator(field)
    assert ev(100.0, 0.0) == 0.0
    assert ev(0.0, 100.0) == 0.0
    assert ev(0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)


# ---------------------------------------------------------------------------
# classical flow
# ---------------------------------------------------------------------------

def test_classical_flow_identity_at_zero():
    q, p = wf.classical_flow(wf.OscillatorParams(-1.0, wf.Constant(1.0)), 0.7, -0.3, 0.0)
    assert (q, p) == (0.7, -0.3)


def test_classical_flow_free_stark_example():
    params = wf.OscillatorParams(0.0, wf.Constant(1.0))
    x, xi, t = 0.9, -0.4, 1.3
    q, p = wf.classical_flow(params, x, xi, t)
    assert q == pytest.approx(x - 2 * xi * t - t * t, rel=1e-12)
    assert p == pytest.approx(xi + t, rel=1e-12)


def test_classical_flow_equals_backward_map_for_constant_drive():
    rng = np.random.default_rng(11)
    params = wf.OscillatorParams(-0.8, wf.Constant(0.7), 1.0)
    for _ in range(30):
        x, xi, t = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 4)
        c = wf.flow_coefficients(params, t)
        X, XI = wf.backward_map(c, x, xi)
        q, p = wf.classical_flow(params, x, xi, t)
        assert abs(q - X) + abs(p - XI) <= 1e-10


def test_classical_flow_differs_from_backward_map_for_cosine_drive():
    params = wf.OscillatorParams(-0.8, wf.Cosine(0.0, 1.0, 2.0), 1.0)
    c = wf.flow_coefficients(params, 1.5)
    X, XI = wf.backward_map(c, 0.3, 0.4)
    q, p = wf.classical_flow(params, 0.3, 0.4, 1.5)
    assert abs(q - X) + abs(p - XI) > 1e-3


def test_group_property_constant_drive():
    params = wf.OscillatorParams(-0.6, wf.Constant(0.8), 1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 2.5, 2)
        x, xi = rng.uniform(-3.0, 3.0, 2)
        direct = wf.backward_map(wf.flow_coefficients(params, t1 + t2), x, xi)
        c1 = wf.flow_coefficients(params, t1)
        c2 = wf.flow_coefficients(params, t2)
        composed = wf.backward_map(c2, *wf.backward_map(c1, x, xi))
        assert abs(direct[0] - composed[0]) + abs(direct[1] - composed[1]) <= 1e-9


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def test_transport_residual_second_order():
    params = wf.OscillatorParams(-1.0, wf.Constant(0.0), 1.0)
    state = wf.CoherentGaussian(0.0, 0.0, 1.0)
    ps = _small_ps(6.0, 61)
    res = [
        wf.liouville_residual(params, state.wigner, 0.5, ps, h, h, h)
        for h in (0.08, 0.04, 0.02)
    ]
    for coarse, fine in zip(res, res[1:]):
        assert 1.8 <= math.log2(coarse / fine) <= 2.2


def test_transport_residual_stationary_state_small():
    omega = 0.8
    state = wf.HarmonicEigen(1, omega, 1.0, normalized=True)
    params = wf.OscillatorParams(omega**2, wf.Constant(0.0), 1.0)
    ps = _small_ps(6.0, 61)
    for t in (0.5, 1.5):
        assert wf.liouville_residual(params, state.wigner, t, ps, 0.02, 0.02, 0.02) <= 5e-3


def test_transport_residual_zero_initial():
    params = wf.OscillatorParams(1.0, wf.Constant(0.0), 1.0)
    ps = _small_ps(6.0, 31)

    def zero(x, xi):
        return np.zeros(np.broadcast(x, xi).shape)

    assert wf.liouville_residual(params, zero, 0.5, ps, 0.05, 0.05, 0.05) == 0.0


def test_eigen_residuals_second_order():
    state = wf.HarmonicEigen(2, 1.0, 1.0, normalized=True)
    energy = wf.harmonic_energy(2, 1.0, 1.0)
    point = (0.6, 0.45)
    r_a, r_b = [], []
    for h in (0.08, 0.04, 0.02):
        ra, rb = wf.stationary_residual(state, energy, point, (h, h))
        r_a.append(abs(ra))
        r_b.append(abs(rb))
    for seq in (r_a, r_b):
        for coarse, fine in zip(seq, seq[1:]):
            assert 1.8 <= math.log2(coarse / fine) <= 2.2


def test_eigen_residual_detects_wrong_energy():
    state = wf.HarmonicEigen(2, 1.0, 1.0, normalized=True)
    energy = 1.1 * wf.harmonic_energy(2, 1.0, 1.0)
    point = (0.6, 0.45)
    residuals = [abs(wf.stationary_residual(state, energy, point, (h, h))[0])
                 for h in (0.04, 0.02, 0.01)]
    assert min(residuals) > 1e-3  # bounded away from zero as steps shrink


def test_eigen_constraint_vanishes_at_origin():
    state = wf.HarmonicEigen(3, 1.0, 1.0, normalized=True)
    _, rb = wf.stationary_residual(state, wf.harmonic_energy(3, 1.0, 1.0),
                                   (0.0, 0.0), (0.05, 0.05))
    assert rb == 0.0


def test_delta_potential_residuals_small():
    r40, r41 = wf.delta_stationary_residual(-2.0, 1.0, (0.7, 0.3), 2.0e4)
    assert abs(r40) <= 1e-4
    assert abs(r41) <= 1e-4


def test_delta_potential_residuals_converge_under_refinement():
    coarse = wf.delta_stationary_residual(-2.0, 1.0, (0.7, 0.3), 2.0e4,
                                          fd_step=8e-3, quad_step=0.04)
    fine = wf.delta_stationary_residual(-2.0, 1.0, (0.7, 0.3), 2.0e4,
                                        fd_step=2e-3, quad_step=0.01)
    assert abs(fine[0]) < abs(coarse[0])


def test_delta_potential_residuals_mirror_in_x():
    plus = wf.delta_stationary_residual(-2.0, 1.0, (0.7, 0.3), 2.0e4)
    minus = wf.delta_stationary_residual(-2.0, 1.0, (-0.7, 0.3), 2.0e4)
    assert plus[0] == pytest.approx(minus[0], abs=1e-12)
    assert abs(plus[1]) == pytest.approx(abs(minus[1]), abs=1e-12)


def test_delta_residual_rejects_kink_point():
    with pytest.raises(ConfigurationError):
        wf.delta_stationary_residual(-2.0, 1.0, (0.0, 0.3), 2.0e4)


def test_unrepresentable_coefficients_raise_a_library_error():
    params = wf.OscillatorParams(-1.0, wf.Constant(0.5))
    wf.flow_coefficients(params, 354.0)  # 2 w t = 708: cosh still representable
    for t in (356.0, 400.0, 1e4):
        with pytest.raises(NumericalConsistencyError):
            wf.flow_coefficients(params, t)
        with pytest.raises(NumericalConsistencyError):
            wf.drive_convolutions(params, t)
    # an undriven flow has zero drive terms at every time
    assert wf.drive_convolutions(wf.OscillatorParams(-1.0), 1e4) == (0.0, 0.0)


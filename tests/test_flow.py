"""Flow coefficients, propagation, classical flow, residual diagnostics."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate

import wignerflow as wf
from wignerflow import flow, transform
from wignerflow.errors import (
    ConfigurationError, NumericalConsistencyError, all_at_least, all_finite, finite_result
)
from wignerflow.gaussian import _SPREAD_MIN, _check_spread

COEFF_NAMES = ("a1", "a2", "a3", "b1", "b2", "b3")


def coeffs_tuple(c):
    return tuple(getattr(c, k) for k in COEFF_NAMES)


def test_identity_at_time_zero():
    for gamma in (-2.0, 0.0, 3.5):
        params = wf.OscillatorParams(gamma, wf.Cosine(0.3, 0.7, 1.1), 1.0)
        c = wf.flow_coefficients(params, 0.0)
        assert coeffs_tuple(c) == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)


def test_negative_time_rejected():
    with pytest.raises(wf.ConfigurationError):
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


def _quad_oracle(gamma, drive, t, entry):
    def f(s):
        c = wf.flow_coefficients(wf.OscillatorParams(gamma), s)
        return float(wf.drive_value(drive, s)) * float(getattr(c, entry))

    val, err = scipy.integrate.quad(f, 0.0, t, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    return val


@pytest.mark.parametrize("gamma", [2.0, -1.5, 0.0, -0.25])
def test_cosine_drive_closed_forms_match_quadrature(gamma):
    drive = wf.Cosine(0.7, 1.3, 2.1)
    params = wf.OscillatorParams(gamma, drive)
    for t in (0.8, 2.3):
        c = wf.flow_coefficients(params, t)
        assert c.a3 == pytest.approx(_quad_oracle(gamma, drive, t, "a2"), abs=1e-10)
        assert c.b3 == pytest.approx(_quad_oracle(gamma, drive, t, "b2"), abs=1e-10)


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
    assert c.a3 == pytest.approx(_quad_oracle(gamma, drive, t, "a2"), abs=1e-9)
    assert c.b3 == pytest.approx(_quad_oracle(gamma, drive, t, "b2"), abs=1e-9)


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
    # the reference is the paper's expanded quadratic, built here from packet_shape
    packet = wf.GaussianPacket(-0.8, 0.6, 1.0)
    ps = _small_ps(8.0, 81)
    x, xi = ps.x_grid.nodes()[:, None], ps.xi_grid.nodes()[None, :]
    for params, t in ((wf.OscillatorParams(-1.0, wf.Constant(0.0), 1.0), 0.9),
                      (wf.OscillatorParams(0.6, wf.Cosine(0.3, 0.5, 1.3), 1.0), 1.7)):
        s = wf.packet_shape(packet, params, t)
        quad = s.A * xi * xi + (s.Bc1 * x + s.Bc0) * xi + s.Cc2 * x * x + s.Cc1 * x + s.Cc0
        expanded = np.exp(-quad / packet.hbar) / (math.pi * packet.hbar)
        closed = wf.wigner_evolved_field(packet, params, t, ps)
        assert np.max(np.abs(closed.values - expanded)) <= 1e-10
        assert np.max(expanded) > 0.1  # the packet is on the grid


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
    # zero at any distance, without a warning from the index cast
    for far in (100.0, 1e30, -1e30, math.inf, -math.inf):
        assert ev(far, 0.0) == 0.0
        assert ev(0.0, far) == 0.0
    assert ev(0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    row = ev(np.array([-math.inf, 0.0, 1e300]), np.zeros(3))
    assert row[0] == row[2] == 0.0 and row[1] == ev(0.0, 0.0)


@pytest.mark.parametrize("x, xi", [(math.nan, 0.0), (0.0, math.nan), (np.array([0.0, math.nan]), 0.0)])
def test_field_evaluator_rejects_a_nan_query(x, xi):
    field = wf.propagate_field(wf.CoherentGaussian(0.0, 0.0, 1.0).wigner, wf.OscillatorParams(0.0), 0.0,
                               _small_ps(6.0, 61))
    with pytest.raises(ConfigurationError):
        wf.field_evaluator(field)(x, xi)


@pytest.mark.parametrize("gridded", [False, True])
def test_backward_map_past_the_double_range_raises_without_a_warning(gridded):
    # gamma = -1, t = 354: the coefficients (~1e307) are finite, a1 x on |x| <= 12 is not
    ps = _small_ps(12.0, 9)
    initial = wf.CoherentGaussian(0.5, 0.0, 1.0).wigner
    if gridded:
        initial = wf.propagate_field(initial, wf.OscillatorParams(0.0), 0.0, ps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalConsistencyError, match="t = 354"):
            wf.propagate_field(initial, wf.OscillatorParams(-1.0), 354.0, ps)


def test_gridded_transport_with_a_huge_backward_map_reads_zero_off_the_grid():
    # at gamma = -1, t = 300 the backward map reaches ~1e260: finite, far beyond any int
    ps = _small_ps(6.0, 61)
    initial = wf.propagate_field(wf.CoherentGaussian(0.5, 0.0, 1.0).wigner, wf.OscillatorParams(0.0), 0.0, ps)
    moved = wf.propagate_field(initial, wf.OscillatorParams(-1.0), 300.0, ps)
    assert np.all(np.isfinite(moved.values))
    x, xi = wf.backward_map(wf.flow_coefficients(wf.OscillatorParams(-1.0), 300.0),
                            ps.x_grid.nodes()[:, None], ps.xi_grid.nodes()[None, :])
    off = (np.abs(x) > 6.0) | (np.abs(xi) > 6.0)
    assert off.sum() > 0 and np.all(moved.values[off] == 0.0)


def _whole_mesh_bilinear(field, coeffs, ps):
    """Gridded transport as one whole-mesh bilinear gather: the reference that the
    chunked, flat-index evaluation must reproduce bit for bit."""
    xg, xig = field.grid.x_grid, field.grid.xi_grid
    vals = field.values
    n, m = vals.shape
    bx, bxi = wf.backward_map(coeffs, ps.x_grid.nodes()[:, None], ps.xi_grid.nodes()[None, :])
    fx = (bx - xg.x_min) / xg.step
    fxi = (bxi - xig.x_min) / xig.step
    inside = (fx >= 0.0) & (fx <= n - 1) & (fxi >= 0.0) & (fxi <= m - 1)
    i = np.clip(np.floor(fx).astype(int), 0, n - 2)
    j = np.clip(np.floor(fxi).astype(int), 0, m - 2)
    wx = np.clip(fx - i, 0.0, 1.0)
    wj = np.clip(fxi - j, 0.0, 1.0)
    v = (
        vals[i, j] * (1 - wx) * (1 - wj)
        + vals[i + 1, j] * wx * (1 - wj)
        + vals[i, j + 1] * (1 - wx) * wj
        + vals[i + 1, j + 1] * wx * wj
    )
    return np.where(inside, v, 0.0)


@pytest.mark.parametrize("state_id", ["coherent", "gauss_general"])
@pytest.mark.parametrize("periods", [0.37, 0.5])
def test_gridded_transport_equals_the_whole_mesh_formula(catalog_fields, state_id, periods):
    _, _, ps, field = catalog_fields(state_id)
    assert ps.shape == (1025, 2187)
    gamma = 0.8
    params = wf.OscillatorParams(gamma, wf.Cosine(0.1, 0.2, 0.7), 1.0)
    t = periods * math.pi / math.sqrt(gamma)
    moved = wf.propagate_field(field, params, t, ps)
    reference = _whole_mesh_bilinear(field, wf.flow_coefficients(params, t), ps)
    assert moved.values.tobytes() == reference.tobytes()


def test_many_row_chunks_equal_one(monkeypatch):
    state = wf.CoherentGaussian(0.4, -0.3, 1.0)
    grid = wf.Grid1D.symmetric(9.0, 257)
    ps = wf.natural_grid(grid, 1.0)
    field = wf.wigner_transform(wf.sample_catalog_state(state, grid), ps)
    params = wf.OscillatorParams(-0.6, wf.Cosine(0.2, 0.3, 1.1), 1.0)
    chunk_rows = []

    def closed_form(x, xi):
        chunk_rows.append(len(x))
        return state.wigner(x, xi)

    results = []
    # room for the whole mesh in one chunk, then for no more than one row per chunk
    for budget, rows in ((1 << 40, [ps.x_grid.count]), (16 * np.getbufsize(), [1] * ps.x_grid.count)):
        monkeypatch.setattr(transform, "_CHUNK_BYTES", budget)
        chunk_rows.clear()
        results.append([wf.propagate_field(initial, params, 0.9, ps).values for initial in (field, closed_form)])
        assert chunk_rows == rows
    for whole, chunked in zip(*results):
        assert np.array_equal(chunked, whole)


def test_one_chunk_mesh_calls_the_evaluator_once_and_a_constant_fills_it():
    state = wf.CoherentGaussian(0.4, -0.3, 1.0)
    ps = _small_ps(6.0, 61)
    params = wf.OscillatorParams(0.7, wf.Cosine(0.1, 0.2, 0.9), 1.0)
    made = []

    def closed_form(x, xi):
        made.append(state.wigner(x, xi))
        return made[-1]

    moved = wf.propagate_field(closed_form, params, 0.6, ps)
    assert len(made) == 1 and np.array_equal(moved.values, made[0])
    # an evaluator answering with a broadcastable constant still fills the mesh
    constant = wf.propagate_field(lambda x, xi: 0.25, params, 0.6, ps)
    assert constant.values.shape == ps.shape and np.all(constant.values == 0.25)


def test_field_evaluator_broadcasts_its_query_like_the_pointwise_formula():
    field = wf.propagate_field(wf.CoherentGaussian(0.2, 0.1, 1.0).wigner, wf.OscillatorParams(0.0), 0.0,
                               _small_ps(6.0, 61))
    ev = wf.field_evaluator(field)
    x = np.linspace(-7.0, 7.0, 23)[:, None]
    xi = np.linspace(-6.5, 6.1, 17)[None, :]
    grid_values = ev(x, xi)
    assert grid_values.shape == (23, 17)
    pointwise = [[float(ev(a, b)) for b in xi.ravel()] for a in x.ravel()]
    assert np.array_equal(grid_values, pointwise)
    assert np.shape(ev(0.3, -0.2)) == () and ev([0.3], -0.2).shape == (1,)


def test_gridded_transport_peak_memory_is_the_output_plus_one_chunk(catalog_fields):
    _, _, ps, field = catalog_fields("coherent")
    params = wf.OscillatorParams(0.8, wf.Cosine(0.1, 0.2, 0.7), 1.0)
    tracemalloc.start()
    try:
        moved = wf.propagate_field(field, params, 1.3, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= moved.values.nbytes + transform._CHUNK_BYTES


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


def _count_scaled_flow_calls(monkeypatch):
    calls = []
    scaled_flow = flow._scaled_flow

    def counted(params, t):
        calls.append(np.shape(t))
        return scaled_flow(params, t)

    monkeypatch.setattr(flow, "_scaled_flow", counted)
    return calls


def test_transport_residual_makes_one_flow_call_and_keeps_its_bits(monkeypatch):
    params = wf.OscillatorParams(-0.7, wf.Cosine(0.2, 0.4, 1.3), 1.0)
    state = wf.CoherentGaussian(0.3, -0.2, 1.0)
    ps = _small_ps(6.0, 61)
    t, h = 0.8, 0.03
    xs, xis = ps.x_grid.nodes(), ps.xi_grid.nodes()

    def field_at(time, x_nodes, xi_nodes):  # one flow call per sample, as a reference
        x, xi = wf.backward_map(wf.flow_coefficients(params, time), x_nodes[:, None], xi_nodes[None, :])
        return state.wigner(x, xi)

    dw_dt = (field_at(t + h, xs, xis) - field_at(t - h, xs, xis)) / (2.0 * h)
    dw_dx = (field_at(t, xs + h, xis) - field_at(t, xs - h, xis)) / (2.0 * h)
    dw_dxi = (field_at(t, xs, xis + h) - field_at(t, xs, xis - h)) / (2.0 * h)
    q_now = float(wf.drive_value(params.drive, t))
    residual = dw_dt + 2.0 * xis[None, :] * dw_dx - (2.0 * params.gamma * xs[:, None] + q_now) * dw_dxi
    reference = float(np.max(np.abs(residual[1:-1, 1:-1])))

    calls = _count_scaled_flow_calls(monkeypatch)
    assert wf.liouville_residual(params, state.wigner, t, ps, h, h, h) == reference
    assert calls == [(3,)]


def test_transport_residual_errors():
    params = wf.OscillatorParams(-1.0, wf.Constant(0.5))
    state = wf.CoherentGaussian(0.0, 0.0, 1.0)
    ps = _small_ps(4.0, 9)
    with pytest.raises(NumericalConsistencyError):
        wf.liouville_residual(params, state.wigner, 354.5, ps, 1.0, 0.1, 0.1)
    with pytest.raises(ConfigurationError):
        wf.liouville_residual(params, state.wigner, 0.5, ps, 1.0, 0.1, 0.1)


def test_classical_flow_makes_one_flow_call_and_keeps_its_bits(monkeypatch):
    x, xi = np.array([0.3, -1.2, 2.5]), np.array([0.4, 0.9, -0.1])
    for params, t in ((wf.OscillatorParams(-1.0, wf.Cosine(0.2, 0.3, 1.1)), 2.7),
                      (wf.OscillatorParams(0.6, wf.Tabulated([0.0, 1.0, 2.0], [0.1, -0.4, 0.3])), 1.7)):
        c = wf.flow_coefficients(params, t)
        conv_q, conv_p = wf.drive_convolutions(params, t)
        calls = _count_scaled_flow_calls(monkeypatch)
        q, p = wf.classical_flow(params, x, xi, t)
        assert calls == [()]
        assert q.tobytes() == (c.a1 * x + c.a2 * xi + conv_q).tobytes()
        assert p.tobytes() == (c.b1 * x + c.b2 * xi + conv_p).tobytes()
        monkeypatch.undo()
    with pytest.raises(NumericalConsistencyError):
        wf.classical_flow(wf.OscillatorParams(-1.0, wf.Constant(0.5)), 0.1, 0.2, 400.0)


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
    r40, r41 = wf.delta_stationary_residual(-2.0, 1.0, (0.7, 0.3))
    assert abs(r40) <= 1e-4
    assert abs(r41) <= 1e-4


def test_delta_potential_residuals_converge_under_refinement():
    coarse = wf.delta_stationary_residual(-2.0, 1.0, (0.7, 0.3), fd_step=8e-3)
    fine = wf.delta_stationary_residual(-2.0, 1.0, (0.7, 0.3), fd_step=2e-3)
    assert abs(fine[0]) < abs(coarse[0])


def test_delta_potential_residuals_mirror_in_x():
    plus = wf.delta_stationary_residual(-2.0, 1.0, (0.7, 0.3))
    minus = wf.delta_stationary_residual(-2.0, 1.0, (-0.7, 0.3))
    assert plus[0] == pytest.approx(minus[0], abs=1e-12)
    assert abs(plus[1]) == pytest.approx(abs(minus[1]), abs=1e-12)


def test_delta_residual_rejects_kink_point():
    with pytest.raises(ConfigurationError):
        wf.delta_stationary_residual(-2.0, 1.0, (0.0, 0.3))


def test_unrepresentable_coefficients_raise_a_library_error():
    params = wf.OscillatorParams(-1.0, wf.Constant(0.5))
    wf.flow_coefficients(params, 354.0)  # 2 w t = 708: cosh still representable
    for t in (356.0, 400.0, 1e4, np.array([1.0, 400.0])):
        with pytest.raises(NumericalConsistencyError):
            wf.flow_coefficients(params, t)
        with pytest.raises(NumericalConsistencyError):
            wf.drive_convolutions(params, t)
    # an undriven flow has zero drive terms at every time
    assert wf.drive_convolutions(wf.OscillatorParams(-1.0), 1e4) == (0.0, 0.0)



def test_flow_maps_raise_where_the_image_leaves_the_double_range():
    params = wf.OscillatorParams(-1.0, wf.Constant(1.0))
    coeffs = wf.flow_coefficients(params, 30.0)  # entries ~ 1e25
    shifted = wf.FlowCoefficients(1.0, 0.0, -1e308, 0.0, 1.0, 0.0, 0.0)  # x0 - a3 overflows
    calls = [
        lambda x, xi: wf.backward_map(coeffs, x, xi),
        lambda x, xi: wf.forward_map(coeffs, x, xi),
        lambda x, xi: wf.classical_flow(params, x, xi, 30.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            for x, xi in ((math.inf, 0.0), (0.0, -math.inf), (1e300, 1.0)):
                with pytest.raises(NumericalConsistencyError):
                    call(x, xi)
            with pytest.raises(ConfigurationError):
                call(math.nan, 0.0)
        with pytest.raises(NumericalConsistencyError):
            wf.forward_map(shifted, 1e308, 0.0)
        assert wf.forward_map(shifted, -1e308, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("make", [
    lambda bad: wf.Constant(bad),
    lambda bad: wf.Cosine(bad, 0.2, 1.0),
    lambda bad: wf.Cosine(0.1, bad, 1.0),
    lambda bad: wf.Cosine(0.1, 0.2, bad),
    lambda bad: wf.Tabulated([0.0, bad], [0.0, 1.0]),
    lambda bad: wf.Tabulated([0.0, 1.0], [bad, 1.0]),
])
def test_drives_reject_a_parameter_that_is_not_finite(make):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError):
            make(bad)


def test_cosine_drive_rejects_an_omega_whose_square_is_not_finite():
    edge = math.sqrt(sys.float_info.max)
    assert wf.Cosine(0.1, 0.2, -edge).Omega == -edge
    for omega in (1.5e154, -1e160, 1e300):
        with pytest.raises(ConfigurationError, match="Omega"):
            wf.Cosine(0.1, 0.2, omega)


def test_drive_value_past_the_double_range_raises():
    with pytest.raises(NumericalConsistencyError):
        wf.drive_value(wf.Cosine(0.1, 0.2, 1e154), 1e160)  # Omega t overflows
    with pytest.raises(NumericalConsistencyError):
        wf.drive_value(wf.Cosine(1e308, 1e308, 0.0), 1.0)
    with pytest.raises(NumericalConsistencyError):
        wf.drive_value(wf.Tabulated([0.0, 1.0], [1e308, -1e308]), 0.5)


@pytest.mark.parametrize("drive", [wf.Constant(1.0), wf.Cosine(0.1, 0.5, 2.0),
                                   wf.Tabulated([0.0, 1.0], [0.0, 1.0])])
def test_drive_value_rejects_a_time_that_is_not_finite(drive):
    for t in (math.inf, -math.inf, math.nan, np.array([0.0, math.nan])):
        with pytest.raises(ConfigurationError, match="drive time must be finite"):
            wf.drive_value(drive, t)


# e^0 (the Python float 0.0 that gamma >= 0 flows carry) and a scale, with NumPy-scalar
# (shape None) and array mantissas; 1e300 * e^100 leaves the range on the scaled path
@pytest.mark.parametrize("L, big, shape", [
    (0.0, math.inf, None), (0.0, math.nan, None), (0.0, math.inf, (3,)), (0.0, math.nan, ()),
    (100.0, 1e300, None), (100.0, 1e300, (3,)), (np.array([0.0, 100.0]), 1e300, (2,)),
])
def test_unscale_raises_when_a_mantissa_leaves_the_range(L, big, shape):
    if shape is None:
        ok, bad = np.float64(0.5), np.float64(big)
    else:
        ok, bad = np.full(shape, 0.5), np.full(shape, big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mantissas in ((ok, bad), (bad, ok), (ok, ok, bad)):
            with pytest.raises(NumericalConsistencyError,
                               match=r"^flow coefficients left the double range at scale e\^"):
                flow._unscale("flow coefficients", L, *mantissas)
        assert all(np.isfinite(v).all() for v in flow._unscale("flow coefficients", L, ok, ok))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_finiteness_rule_of_scalars_tuples_and_arrays(bad):
    ok = [0.5, np.float64(-2.0), 3, (0.5, np.float64(1e300)), np.arange(4.0), np.array(2.0),
          (np.zeros((2, 3)), np.ones((2, 3))), (np.array(1.0), 1.5), ()]
    bad_values = [bad, np.float64(bad), (0.5, bad), (np.float64(bad), 0.5), np.array([0.0, bad]),
                  np.array(bad), (np.zeros(2), np.array([1.0, bad])), (np.array(1.0), bad)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in ok:
            assert all_finite(value) is True
            assert finite_result("the value", value) is value
        for value in bad_values:
            assert all_finite(value) is False
            with pytest.raises(NumericalConsistencyError, match="^the value exceeds the double"):
                finite_result("the value", value)
        # with a lower bound (a flow time, a packet spread): finite and at least low
        for low in (0.0, _SPREAD_MIN):
            for value in (low, np.float64(low), 1e308, np.array(low), np.array([low, 1.0])):
                assert all_at_least(value, low) is True
            below = np.nextafter(low, -1.0)
            for value in (bad, np.float64(bad), below, np.array(below), np.array([1.0, bad])):
                assert all_at_least(value, low) is False
        assert all_at_least(-0.0, 0.0) is True and all_at_least(np.float64(-0.0), 0.0) is True
        # the packet spread: normal and finite, a scalar as an array
        for spread in (_SPREAD_MIN, 1.0, 1e308):
            for form in (np.float64, np.array, lambda s: np.full(3, s)):
                _check_spread(form(spread), form(0.5))
        for spread, v in ((bad, 0.5), (0.5 * _SPREAD_MIN, 0.5), (0.0, 0.5), (1.0, bad)):
            for form in (np.float64, lambda s: np.full(3, s)):
                with pytest.raises(NumericalConsistencyError, match="centre or width"):
                    _check_spread(form(spread), form(v))


def test_unscale_at_e0_returns_array_mantissas_as_writable_copies():
    stored = (np.linspace(-1.0, 1.0, 5), np.linspace(2.0, 3.0, 5))
    for m in stored:
        m.flags.writeable = False  # as a memoised flow holds them
    for got, m in zip(flow._unscale("flow coefficients", 0.0, *stored), stored):
        assert got is not m and not np.shares_memory(got, m)
        assert got.flags.writeable and got.tobytes() == m.tobytes()
    scalar = np.float64(0.25)
    assert flow._unscale("flow coefficients", 0.0, scalar)[0] is scalar

"""Discrete transform operations: reference cases and error contracts."""

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import wignerflow as wf
from wignerflow import transform
from wignerflow.errors import (
    ConfigurationError,
    DomainTooSmallError,
    IndeterminateResultError,
    NotInvertibleError,
    NumericalConsistencyError,
)

from conftest import CATALOG, fidelity


@pytest.fixture(scope="module")
def gaussian_field():
    grid = wf.Grid1D.from_span(-8.0, 8.0, 512)
    state = wf.CoherentGaussian(0.0, 0.0, 1.0)
    wave = wf.sample_catalog_state(state, grid)
    ps = wf.natural_grid(grid, 1.0)
    return state, wave, ps, wf.wigner_transform(wave, ps)


def test_gaussian_transform_matches_closed_form(gaussian_field):
    state, _, ps, field = gaussian_field
    exact = state.wigner(ps.x_grid.nodes()[:, None], ps.xi_grid.nodes()[None, :])
    assert np.max(np.abs(field.values - exact)) <= 1e-8


def test_zero_wavefunction_gives_zero_field():
    grid = wf.Grid1D.symmetric(4.0, 65)
    wave = wf.WaveSample(grid, np.zeros(65, dtype=complex), 1.0)
    field = wf.wigner_transform(wave, wf.natural_grid(grid, 1.0))
    assert np.all(field.values == 0.0)


def test_box_value_at_quarter_period():
    # half-step edge placement; xi grid contains pi/2 exactly
    box = wf.Box(1.0, 2.0)
    step = 2.0 / 1401.0
    grid = wf.Grid1D(-750.0 * step, step, 1501)
    xi = wf.Grid1D(-160 * math.pi / 16, math.pi / 16, 321)
    field = wf.wigner_transform(
        wf.sample_catalog_state(box, grid), wf.PhaseSpaceGrid(grid, xi)
    )
    i = int(round((0.0 - grid.x_min) / grid.step))
    j = int(round((math.pi / 2 - xi.x_min) / xi.step))
    assert field.values[i, j] == pytest.approx(1.0 / math.pi**2, abs=1e-6)
    assert field.values[i, j] == pytest.approx(
        math.sin(math.pi / 2) / (2.0 * math.pi * (math.pi / 2)), abs=1e-6
    )


def test_grid_mismatch_raises_configuration_error(gaussian_field):
    _, wave, _, _ = gaussian_field
    other = wf.natural_grid(wf.Grid1D.from_span(-8.0, 8.0, 256), 1.0)
    with pytest.raises(ConfigurationError):
        wf.wigner_transform(wave, other)


def test_boundary_decay_violation_raises():
    grid = wf.Grid1D.symmetric(2.0, 65)  # far too small for this packet
    wave = wf.sample_catalog_state(wf.CoherentGaussian(0.0, 0.0, 1.0), grid)
    with pytest.raises(DomainTooSmallError):
        wf.wigner_transform(wave, wf.natural_grid(grid, 1.0))


# ---------------------------------------------------------------------------
# marginals, mass, overlap
# ---------------------------------------------------------------------------

def test_position_marginal_gaussian(gaussian_field):
    _, _, ps, field = gaussian_field
    xs = ps.x_grid.nodes()
    target = np.exp(-xs * xs) / math.sqrt(math.pi)
    assert np.max(np.abs(wf.position_marginal(field) - target)) <= 1e-6


def test_momentum_marginal_gaussian(gaussian_field):
    _, _, ps, field = gaussian_field
    xis = ps.xi_grid.nodes()
    target = np.exp(-xis * xis) / math.sqrt(math.pi)
    assert np.max(np.abs(wf.momentum_marginal(field) - target)) <= 1e-6


def test_marginals_of_zero_field():
    grid = wf.Grid1D.symmetric(4.0, 33)
    ps = wf.natural_grid(grid, 1.0)
    field = wf.WignerField(ps, np.zeros(ps.shape), 1.0)
    assert np.all(wf.position_marginal(field) == 0.0)
    assert np.all(wf.momentum_marginal(field) == 0.0)


def test_momentum_marginal_shifted_gaussian():
    grid = wf.Grid1D.from_span(-8.0, 8.0, 512)
    wave = wf.sample_catalog_state(wf.CoherentGaussian(0.0, 2.0, 1.0), grid)
    ps = wf.natural_grid(grid, 1.0)
    field = wf.wigner_transform(wave, ps)
    xis = ps.xi_grid.nodes()
    target = np.exp(-((xis - 2.0) ** 2)) / math.sqrt(math.pi)
    assert np.max(np.abs(wf.momentum_marginal(field) - target)) <= 1e-6


def test_box_position_marginal_against_closed_form_quadrature(catalog_fields):
    box, wave, ps, field = catalog_fields("box")
    xs = ps.x_grid.nodes()
    keep = np.abs(np.abs(xs) - box.R) > 0.2  # Gibbs-limited near the edges
    marginal = wf.position_marginal(field)[keep]

    # independent oracle: quadrature of the closed form over a wide xi window
    xi = np.linspace(-4000.0, 4000.0, 2**18 + 1)
    sub = xs[keep][::40]
    oracle = np.trapezoid(box.wigner(sub[:, None], xi[None, :]), xi, axis=1)
    indicator = np.where(np.abs(sub) < box.R, 1.0 / (2.0 * box.R), 0.0)

    assert np.max(np.abs(oracle - indicator)) <= 1e-3
    assert np.max(np.abs(marginal[::40] - indicator)) <= 1e-3


def test_total_mass_examples(gaussian_field, catalog_fields):
    _, _, _, field = gaussian_field
    assert wf.total_mass(field) == pytest.approx(1.0, abs=1e-6)
    scaled = wf.WignerField(field.grid, 4.0 * field.values, field.hbar)
    assert wf.total_mass(scaled) == pytest.approx(4.0 * wf.total_mass(field), rel=1e-14)
    _, _, _, h1 = catalog_fields("hermite1")
    assert wf.total_mass(h1) == pytest.approx(1.0, abs=1e-6)


def test_overlap_identity_examples(catalog_fields):
    _, w0, _, f0 = catalog_fields("hermite0")
    _, w1, _, f1 = catalog_fields("hermite1")
    assert wf.overlap_identity(f0, f0) == pytest.approx(1.0, abs=1e-6)
    assert wf.overlap_identity(f0, f1) == pytest.approx(0.0, abs=1e-6)
    zero = wf.WignerField(f0.grid, np.zeros_like(f0.values), f0.hbar)
    assert wf.overlap_identity(f0, zero) == 0.0
    with pytest.raises(ConfigurationError):
        g2 = wf.Grid1D.symmetric(3.0, 33)
        wf.overlap_identity(f0, wf.WignerField(wf.natural_grid(g2, 1.0),
                                               np.zeros((33, 67)), 1.0))


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_inversion_recovers_shifted_gaussian():
    grid = wf.Grid1D.from_span(-8.0, 8.0, 512)
    state = wf.CoherentGaussian(0.0, 2.0, 1.0)
    wave = wf.sample_catalog_state(state, grid)
    ps = wf.natural_grid(grid, 1.0)
    field = wf.wigner_transform(wave, ps)
    recovered = wf.invert_wigner(field)
    assert fidelity(recovered, wave) >= 1.0 - 1e-6
    # round trip reproduces the field
    again = wf.wigner_transform(recovered, ps)
    assert np.max(np.abs(again.values - field.values)) <= 1e-6


def test_inversion_phase_convention_keeps_positive_state_positive(catalog_fields):
    _, wave, _, field = catalog_fields("coherent_origin")
    recovered = wf.invert_wigner(field)
    assert np.max(np.abs(recovered.values.imag)) <= 1e-9
    significant = np.abs(wave.values) > 1e-3
    assert np.all(recovered.values.real[significant] > 0.0)


def test_inversion_hermite2_against_analytic(catalog_fields):
    _, wave, _, field = catalog_fields("hermite2")
    recovered = wf.invert_wigner(field)
    assert fidelity(recovered, wave) >= 1.0 - 1e-5


def test_inversion_floor_error():
    grid = wf.Grid1D.symmetric(4.0, 65)
    ps = wf.natural_grid(grid, 1.0)
    field = wf.WignerField(ps, np.zeros(ps.shape), 1.0)
    with pytest.raises(NotInvertibleError):
        wf.invert_wigner(field)


def test_inversion_with_info_and_explicit_anchor():
    grid = wf.Grid1D.from_span(-7.5, 9.5, 512)
    wave = wf.sample_catalog_state(wf.CoherentGaussian(1.0, 0.0, 1.0), grid)
    ps = wf.natural_grid(grid, 1.0)
    field = wf.wigner_transform(wave, ps)
    recovered, info = wf.invert_wigner(field, x_star=1.0, with_info=True)
    assert abs(info.x_star - 1.0) <= grid.step
    assert fidelity(recovered, wave) >= 1.0 - 1e-6
    with pytest.raises(ConfigurationError):
        wf.invert_wigner(field, x_star=99.0)


# ---------------------------------------------------------------------------
# continuity bounds
# ---------------------------------------------------------------------------

def _gaussian_pair(a1, p1, a2, p2, count=201):
    grid = wf.Grid1D.symmetric(10.0, count)
    ps = wf.natural_grid(grid, 1.0)
    phi1 = wf.sample_catalog_state(wf.CoherentGaussian(a1, p1, 1.0), grid)
    phi2 = wf.sample_catalog_state(wf.CoherentGaussian(a2, p2, 1.0), grid)
    w1 = wf.wigner_transform(phi1, ps)
    w2 = wf.wigner_transform(phi2, ps)
    return w1, w2, phi1, phi2


def test_continuity_identical_states_gives_zeros():
    w1, w2, phi1, phi2 = _gaussian_pair(0.3, -0.2, 0.3, -0.2)
    report = wf.continuity_gap(w1, w2, phi1, phi2)
    assert report.l2_gap == 0.0 and report.sup_gap == 0.0
    assert report.l2_bound <= 1e-12 and report.sup_bound <= 1e-12


def test_continuity_phase_invariance():
    w1, _, phi1, _ = _gaussian_pair(0.3, -0.2, 0.3, -0.2)
    rotated = wf.WaveSample(phi1.grid, np.exp(1j * math.pi / 3) * phi1.values, 1.0)
    w2 = wf.wigner_transform(rotated, w1.grid)
    report = wf.continuity_gap(w1, w2, phi1, rotated)
    plain_gap = math.sqrt(
        phi1.grid.step * float(np.sum(np.abs(phi1.values - rotated.values) ** 2))
    )
    assert plain_gap > 0.4  # the unoptimised wavefunction distance is large
    assert report.sup_gap <= 1e-12 and report.l2_gap <= 1e-12
    assert report.l2_bound <= 1e-12  # theta-optimised bound collapses to zero


def test_continuity_bounds_hold_strictly_for_shifted_gaussian():
    w1, w2, phi1, phi2 = _gaussian_pair(0.0, 0.0, 0.1, 0.0)
    report = wf.continuity_gap(w1, w2, phi1, phi2)
    assert 0.0 < report.l2_gap < report.l2_bound
    assert 0.0 < report.sup_gap < report.sup_bound


# ---------------------------------------------------------------------------
# purity diagnostic
# ---------------------------------------------------------------------------

def test_purity_residual_small_for_pure_state(gaussian_field):
    _, _, _, field = gaussian_field
    assert wf.purity_separability_check(field) <= 1e-6


def test_purity_residual_large_for_mixture(catalog_fields):
    _, _, ps, f0 = catalog_fields("hermite0")
    _, _, _, f1 = catalog_fields("hermite1")
    mix = wf.WignerField(ps, 0.5 * f0.values + 0.5 * f1.values, f0.hbar)
    assert wf.purity_separability_check(mix) >= 1e-2


def test_purity_residual_scale_invariant(gaussian_field):
    _, _, _, field = gaussian_field
    base = wf.purity_separability_check(field)
    scaled = wf.WignerField(field.grid, 7.5 * field.values, field.hbar)
    assert wf.purity_separability_check(scaled) == pytest.approx(base, rel=1e-9, abs=1e-15)


def test_purity_indeterminate_on_empty_field():
    grid = wf.Grid1D.symmetric(4.0, 65)
    ps = wf.natural_grid(grid, 1.0)
    with pytest.raises(IndeterminateResultError):
        wf.purity_separability_check(wf.WignerField(ps, np.zeros(ps.shape), 1.0))


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_realness_residue_below_tolerance():
    # the residue wigner_transform checks and drops: off the natural lattice, the direct sum
    grid = wf.Grid1D.symmetric(9.0, 257)
    wave = wf.sample_catalog_state(wf.CoherentGaussian(0.7, 1.3, 1.0), grid)
    raw = transform._direct_sum(wave, wf.PhaseSpaceGrid(grid, wf.symmetric_xi_grid(6.0, 301)))
    assert np.max(np.abs(raw.imag)) <= 1e-10


def test_phase_invariance_of_transform():
    grid = wf.Grid1D.symmetric(9.0, 257)
    ps = wf.natural_grid(grid, 1.0)
    wave = wf.sample_catalog_state(wf.CoherentGaussian(0.4, -0.8, 1.0), grid)
    rotated = wf.WaveSample(grid, np.exp(1j * 1.234) * wave.values, 1.0)
    f1 = wf.wigner_transform(wave, ps)
    f2 = wf.wigner_transform(rotated, ps)
    assert np.max(np.abs(f1.values - f2.values)) <= 1e-10


def test_hbar_scaling_property():
    # W^hbar(x, xi) = W^1(x, xi/hbar)/hbar for the same sampled wavefunction
    grid = wf.Grid1D.symmetric(9.0, 257)
    values = wf.CoherentGaussian(0.0, 0.0, 1.0).psi(grid.nodes())
    hbar = 2.5
    ps_h = wf.natural_grid(grid, hbar)
    xi_unit = wf.Grid1D(ps_h.xi_grid.x_min / hbar, ps_h.xi_grid.step / hbar,
                        ps_h.xi_grid.count)
    f_h = wf.wigner_transform(wf.WaveSample(grid, values, hbar), ps_h)
    f_1 = wf.wigner_transform(
        wf.WaveSample(grid, values, 1.0), wf.PhaseSpaceGrid(grid, xi_unit)
    )
    assert np.max(np.abs(f_h.values - f_1.values / hbar)) <= 1e-8


@pytest.mark.parametrize("state_id", ["coherent_origin", "hermite1", "soliton"])
def test_parity_property(catalog_fields, state_id):
    _, _, _, field = catalog_fields(state_id)
    flipped = np.max(np.abs(field.values[::-1, :] - field.values[:, ::-1]))
    assert flipped <= 1e-8


# ---------------------------------------------------------------------------
# half-spectrum path against the complex oracle
# ---------------------------------------------------------------------------

def _complex_fft_blocks(wave, ps, rows=256):
    """(row slice, complex values) of the full-lag complex FFT transform on the natural
    lattice, a block of rows at a time: every lag j = -(n-1)..(n-1) in FFT layout (j >= 0 at
    the front, j < 0 wrapped to the back), zero-padded to the M frequencies and shifted."""
    n = wave.grid.count
    m = ps.xi_grid.count
    dy = 2.0 * wave.grid.step / wave.hbar
    pad = np.zeros(3 * n - 2, dtype=complex)
    pad[n - 1 : 2 * n - 1] = wave.values
    windows = np.lib.stride_tricks.sliding_window_view(pad, 2 * n - 1)
    for k in range(0, n, rows):
        win = windows[k : k + rows]
        nu = win * np.conj(win[:, ::-1])
        nu_pad = np.zeros((nu.shape[0], m), dtype=complex)
        nu_pad[:, :n] = nu[:, n - 1 :]
        nu_pad[:, m - (n - 1) :] = nu[:, : n - 1]
        spectrum = np.fft.fftshift(np.fft.fft(nu_pad, axis=1), axes=1)
        yield slice(k, k + nu.shape[0]), spectrum * (dy / (2.0 * math.pi))


def _gap_to_complex_oracle(values, wave, ps):
    """(max |values - ref.real|, max |ref.real|), with ref the complex FFT's row blocks."""
    gap = peak = 0.0
    for sl, ref in _complex_fft_blocks(wave, ps):
        gap = max(gap, float(np.max(np.abs(values[sl] - ref.real))))
        peak = max(peak, float(np.max(np.abs(ref.real))))
    return gap, peak


@pytest.mark.parametrize("state_id", sorted(CATALOG))
def test_half_spectrum_matches_complex_oracle_on_catalog(catalog_fields, state_id):
    _, wave, ps, field = catalog_fields(state_id)
    gap, peak = _gap_to_complex_oracle(field.values, wave, ps)
    assert gap <= 1e-12 * peak


@pytest.mark.parametrize("count, xi_count", [(257, 515), (3, 5), (3, 7)])
def test_half_spectrum_matches_complex_oracle_on_any_natural_count(count, xi_count):
    # 515 = 5 * 103 is not 7-smooth; 3 nodes is the smallest grid with decaying edges
    rng = np.random.default_rng(count + xi_count)
    values = np.zeros(count, dtype=complex)
    values[1:-1] = rng.normal(size=count - 2) + 1j * rng.normal(size=count - 2)
    grid = wf.Grid1D.symmetric(5.0, count)
    wave = wf.WaveSample(grid, values, 0.7)
    ps = wf.natural_grid(grid, 0.7, count=xi_count)
    gap, peak = _gap_to_complex_oracle(wf.wigner_transform(wave, ps).values, wave, ps)
    assert gap <= 1e-12 * peak


@pytest.mark.parametrize("natural", [False, True], ids=["non_natural", "natural"])
def test_symmetric_non_natural_grid_takes_the_direct_sum(monkeypatch, natural):
    # each xi grid reaches exactly one kernel: the half spectrum on the natural lattice,
    # the direct sum on any other symmetric grid
    grid = wf.Grid1D.symmetric(9.0, 129)
    wave = wf.sample_catalog_state(wf.CoherentGaussian(0.4, -0.8, 1.0), grid)
    if natural:
        ps = wf.natural_grid(grid, 1.0)
        expected, other = transform._half_spectrum(wave, ps)[0], "_direct_sum"
    else:
        ps = wf.PhaseSpaceGrid(grid, wf.symmetric_xi_grid(6.0, 301))
        expected, other = transform._direct_sum(wave, ps).real, "_half_spectrum"

    def unreachable(*args):
        raise AssertionError(f"{other} ran on a {'natural' if natural else 'non-natural'} grid")

    monkeypatch.setattr(transform, other, unreachable)
    assert np.array_equal(wf.wigner_transform(wave, ps).values, expected)


def test_natural_path_guard_fires_when_the_xi_sum_misses_the_density(monkeypatch):
    grid = wf.Grid1D.symmetric(9.0, 129)
    wave = wf.sample_catalog_state(wf.CoherentGaussian(0.4, -0.8, 1.0), grid)
    ps = wf.natural_grid(grid, 1.0)
    exact = transform._half_spectrum

    def shifted(w, g):
        values = exact(w, g)[0] + 1e-6
        return values, values.sum(axis=1)

    monkeypatch.setattr(transform, "_half_spectrum", shifted)
    with pytest.raises(NumericalConsistencyError):
        wf.wigner_transform(wave, ps)


def test_chunked_forward_and_inversion_equal_unchunked(monkeypatch):
    grid = wf.Grid1D.symmetric(9.0, 257)
    wave = wf.sample_catalog_state(wf.CoherentGaussian(0.7, 1.3, 1.0), grid)
    ps = wf.natural_grid(grid, 1.0)
    field = wf.wigner_transform(wave, ps)
    recovered = wf.invert_wigner(field)
    purity = wf.purity_separability_check(field)

    # room for a few dozen rows of lag products, or a few rows of inversion phases
    monkeypatch.setattr(transform, "_CHUNK_BYTES", 16 * (np.getbufsize() + 40 * grid.count))
    forward_row_bytes = 16 * grid.count + 8 * ps.xi_grid.count
    assert 1 < len(transform._row_chunks(grid.count, forward_row_bytes)) < grid.count
    chunked = wf.wigner_transform(wave, ps)
    assert np.array_equal(chunked.values, field.values)
    assert np.array_equal(wf.invert_wigner(field).values, recovered.values)
    assert wf.purity_separability_check(field) == purity


def test_forward_peak_memory_is_the_field_plus_one_chunk(catalog_fields):
    _, wave, ps, _ = catalog_fields("box")
    tracemalloc.start()
    try:
        field = wf.wigner_transform(wave, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= field.values.nbytes + transform._CHUNK_BYTES


@pytest.mark.parametrize(
    "products, anchor",
    [(transform._anchor_products, 1001), (transform._half_row_products, 1000)],
)
def test_inversion_scratch_stays_within_one_chunk(catalog_fields, products, anchor):
    _, _, _, field = catalog_fields("box")
    odd = np.arange(1, field.grid.x_grid.count, 2)
    tracemalloc.start()
    try:
        products(field, odd, anchor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= transform._CHUNK_BYTES


def _reference_phase_sums(field, q, *sources):
    """The lattice phase sums in one whole-array pass per source (lo, hi, rows_at): an int64
    outer product reduced by np.remainder and a fancy-index gather, the reference the chunked
    kernel must match."""
    m = field.grid.xi_grid.count
    table = np.exp(1j * math.pi / m * np.arange(2 * m))
    idx = np.remainder(np.multiply.outer(q.astype(np.int64), np.arange(m) - (m - 1) // 2), 2 * m)
    return [field.grid.xi_grid.step * (table[idx[lo:hi]] * rows_at(slice(lo, hi))).sum(axis=1)
            for lo, hi, rows_at in sources]


@pytest.mark.parametrize("state_id", ["coherent", "gauss_general"])
def test_inversion_and_purity_equal_the_reference_phase_sums(catalog_fields, state_id, monkeypatch):
    _, _, ps, field = catalog_fields(state_id)
    assert ps.shape == (1025, 2187)
    recovered = wf.invert_wigner(field).values
    purity = wf.purity_separability_check(field)
    monkeypatch.setattr(transform, "_lattice_phase_sums", _reference_phase_sums)
    assert recovered.tobytes() == wf.invert_wigner(field).values.tobytes()
    assert purity == wf.purity_separability_check(field)


@pytest.mark.parametrize("past_int32", [0, 1])
def test_phase_sums_take_wide_integers_where_the_products_need_them(past_int32):
    grid = wf.Grid1D.symmetric(9.0, 129)
    field = wf.wigner_transform(wf.sample_catalog_state(wf.CoherentGaussian(0.3, -0.4, 1.0), grid),
                                wf.natural_grid(grid, 1.0))
    m = field.grid.xi_grid.count
    reach = max((m - 1) // 2, m - 1 - (m - 1) // 2)  # max |l - c|
    # the largest q whose products q (l - c) all fit int32, and one past it, where they reach 2^31
    q_max = (2**31 - 1) // reach + past_int32
    assert (q_max * reach >= 2**31) == bool(past_int32)
    rng = np.random.default_rng(5)
    q = np.concatenate(([q_max, -q_max, 0, 1], rng.integers(-q_max, q_max + 1, 40)))
    mids = rng.integers(0, grid.count, q.size)

    def rows_at(sl):
        return field.values[mids[sl]]

    def reversed_rows_at(sl):
        return field.values[mids[::-1][sl]]

    # one source over every shift, and two that overlap on some of them
    for sources in [[(0, q.size, rows_at)], [(0, 30, rows_at), (10, q.size, reversed_rows_at)]]:
        got = transform._lattice_phase_sums(field, q, *sources)
        reference = _reference_phase_sums(field, q, *sources)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in reference]


def test_inversion_peak_memory_is_the_output_plus_one_chunk(catalog_fields):
    _, _, _, field = catalog_fields("box")
    tracemalloc.start()
    try:
        recovered = wf.invert_wigner(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= recovered.values.nbytes + transform._CHUNK_BYTES


@pytest.mark.parametrize("reconstruct", [wf.invert_wigner, wf.purity_separability_check])
def test_reconstruction_needs_the_natural_lattice(reconstruct):
    grid = wf.Grid1D.symmetric(9.0, 129)
    wave = wf.sample_catalog_state(wf.CoherentGaussian(0.4, -0.8, 1.0), grid)
    field = wf.wigner_transform(wave, wf.PhaseSpaceGrid(grid, wf.symmetric_xi_grid(6.0, 301)))
    with pytest.raises(ConfigurationError):
        reconstruct(field)


_SMALL = wf.Grid1D.symmetric(4.0, 33)
_SMALL_GRIDS = {
    "natural": wf.natural_grid(_SMALL, 1.0),
    "direct": wf.PhaseSpaceGrid(_SMALL, wf.Grid1D.symmetric(3.0, 21)),
}


@pytest.mark.parametrize("path", sorted(_SMALL_GRIDS))
def test_a_transform_past_the_double_range_raises_without_a_warning(path):
    sample = wf.sample_catalog_state(wf.GaussGeneral(4.0), _SMALL)
    ps = _SMALL_GRIDS[path]
    for amplitude in (1e154, 1e200):
        wave = wf.WaveSample(_SMALL, sample.values * amplitude, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalConsistencyError, match="exceeds the double range"):
                wf.wigner_transform(wave, ps)
    # a power-of-two amplitude near 1e150 scales every operation exactly
    big = wf.wigner_transform(wf.WaveSample(_SMALL, sample.values * 2.0**500, 1.0), ps)
    np.testing.assert_array_equal(big.values, wf.wigner_transform(sample, ps).values * 2.0**1000)


# ---------------------------------------------------------------------------
# row sums taken once, when a field is built
# ---------------------------------------------------------------------------

def _summed_marginal(field):
    """The position marginal summed afresh from the field's values."""
    return field.grid.xi_grid.step * np.asarray(field.values).sum(axis=1)


def _gathered_anchor_products(field, k_targets, k_anchor, second=None):
    """_anchor_products with one pass per (targets, anchor) pair, its midpoint rows gathered
    by index."""
    products = []
    for targets, anchor in [(k_targets, k_anchor)] + ([second] if second is not None else []):
        mids = (targets + anchor) // 2
        products += transform._lattice_phase_sums(
            field, targets - anchor, (0, targets.size, lambda sl, mids=mids: field.values[mids[sl]]))
    return products


def _gathered_half_row_products(field, k_targets, k_anchor):
    """_half_row_products with all four interpolation rows gathered by clipped index."""
    w = field.values
    n = field.grid.x_grid.count
    lo = (k_targets + k_anchor - 1) // 2
    taps = [np.clip(lo + shift, 0, n - 1) for shift in (-1, 0, 1, 2)]

    def rows_at(sl):
        c0, c1, c2, c3 = (w[c[sl]] for c in taps)
        return (9.0 * (c1 + c2) - c0 - c3) / 16.0

    return transform._lattice_phase_sums(field, k_targets - k_anchor, (0, k_targets.size, rows_at))[0]


@pytest.mark.parametrize("state_id", ["coherent", "gauss_general"])
def test_stored_row_sums_give_the_summed_results_bit_for_bit(catalog_fields, state_id, monkeypatch):
    _, _, ps, field = catalog_fields(state_id)
    assert ps.shape == (1025, 2187)
    marginal = wf.position_marginal(field)
    assert marginal.tobytes() == _summed_marginal(field).tobytes()
    recovered, info = wf.invert_wigner(field, with_info=True)
    purity = wf.purity_separability_check(field)
    # the same pipeline with every marginal summed afresh and every row gathered by index
    monkeypatch.setattr(transform, "position_marginal", _summed_marginal)
    monkeypatch.setattr(transform, "_anchor_products", _gathered_anchor_products)
    monkeypatch.setattr(transform, "_half_row_products", _gathered_half_row_products)
    reference, reference_info = wf.invert_wigner(field, with_info=True)
    assert recovered.values.tobytes() == reference.values.tobytes()
    assert info == reference_info
    assert purity == wf.purity_separability_check(field)


@pytest.mark.parametrize("anchor", [0, 1, 64, 127, 128])
def test_row_views_equal_the_gathered_rows_up_to_the_clipped_edges(anchor):
    grid = wf.Grid1D.symmetric(9.0, 129)
    field = wf.wigner_transform(wf.sample_catalog_state(wf.CoherentGaussian(0.3, -0.4, 1.0), grid),
                                wf.natural_grid(grid, 1.0))
    k_all = np.arange(grid.count)
    same, opp = k_all[(k_all + anchor) % 2 == 0], k_all[(k_all + anchor) % 2 == 1]
    got = transform._anchor_products(field, same, anchor)
    assert len(got) == 1
    assert got[0].tobytes() == _gathered_anchor_products(field, same, anchor)[0].tobytes()
    got = transform._half_row_products(field, opp, anchor)
    assert got.tobytes() == _gathered_half_row_products(field, opp, anchor).tobytes()


def test_field_values_are_read_only(gaussian_field):
    field = gaussian_field[3]
    with pytest.raises(ValueError):
        field.values[0, 0] = 1.0
    source = np.zeros(field.grid.shape)
    built = wf.WignerField(field.grid, source, field.hbar)
    with pytest.raises(ValueError):
        built.values += 1.0
    source[0, 0] = 1.0  # the caller's own array stays writable
    assert built.values[0, 0] == 1.0


@pytest.mark.parametrize("cells", [
    {(3, 4): math.nan},
    {(3, 4): math.inf},
    {(0, 0): -math.inf},
    {(5, 1): math.inf, (5, 2): -math.inf},  # a nan row sum from two infinities
    {(2, 0): math.nan, (7, 7): 1e308, (7, 8): 1e308},  # beside a row whose sum overflows
])
def test_a_non_finite_field_value_is_a_configuration_error(cells):
    ps = wf.natural_grid(wf.Grid1D.symmetric(4.0, 33), 1.0)
    values = np.zeros(ps.shape)
    for at, value in cells.items():
        values[at] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="field values must be finite"):
            wf.WignerField(ps, values, 1.0)


def test_a_field_whose_row_sums_overflow_builds_and_its_marginal_raises():
    ps = wf.natural_grid(wf.Grid1D.symmetric(3.0, 5), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = wf.WignerField(ps, np.full(ps.shape, 1e308), 1.0)
        with pytest.raises(NumericalConsistencyError, match="position marginal exceeds"):
            wf.position_marginal(field)


def test_a_loud_catalog_wave_makes_the_transform_raise_without_a_warning(catalog_fields):
    _, wave, ps, _ = catalog_fields("coherent")
    loud = wf.WaveSample(wave.grid, wave.values * 1e154, wave.hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalConsistencyError, match="the transform exceeds"):
            wf.wigner_transform(loud, ps)


def test_a_nan_imaginary_residue_of_the_direct_sum_raises(monkeypatch):
    ps = _SMALL_GRIDS["direct"]
    wave = wf.sample_catalog_state(wf.GaussGeneral(4.0), _SMALL)
    exact = transform._direct_sum

    def nan_residue(w, g):
        spectrum = exact(w, g)
        spectrum.imag[4, 7] = math.nan
        return spectrum

    monkeypatch.setattr(transform, "_direct_sum", nan_residue)
    with pytest.raises(NumericalConsistencyError, match="the transform exceeds"):
        wf.wigner_transform(wave, ps)


# ---------------------------------------------------------------------------
# Row chunks in two shares
# ---------------------------------------------------------------------------

def _spy_shares(monkeypatch):
    """Record every _each_chunk call's chunk count, and the thread that ran each chunk."""
    counts, threads = [], []
    each_chunk = transform._each_chunk

    def spied(chunks, work):
        counts.append(len(chunks))

        def counted(sl):
            threads.append(threading.get_ident())
            work(sl)

        each_chunk(chunks, counted)

    monkeypatch.setattr(transform, "_each_chunk", spied)
    return counts, threads


def _forward_budget(n, m, rows):
    """A _CHUNK_BYTES that gives the two-share forward transform rows rows per chunk."""
    return 16 * np.getbufsize() + 16 * (3 * n - 2) + 16 * n + rows * 2 * (16 * n + 8 * m)


@pytest.mark.parametrize("state_id", ["coherent", "gauss_general"])
@pytest.mark.parametrize("forward_chunks", [1, 2, 5])
def test_two_shares_give_the_bits_of_one(catalog_fields, state_id, forward_chunks, monkeypatch):
    _, wave, ps, field = catalog_fields(state_id)
    n, m = ps.shape
    assert (n, m) == (1025, 2187)
    # one chunk in every loop, or 2 or 5 (an odd count) in the forward transform's
    budget = 1 << 40 if forward_chunks == 1 else _forward_budget(n, m, -(-n // forward_chunks))
    monkeypatch.setattr(transform, "_CHUNK_BYTES", budget)
    params = wf.OscillatorParams(0.8, wf.Cosine(0.1, 0.2, 0.7), 1.0)
    counts, _ = _spy_shares(monkeypatch)

    def pipeline(shares):
        monkeypatch.setattr(transform, "_SHARES", shares)
        counts.clear()
        forward = wf.wigner_transform(wave, ps)
        recovered, info = wf.invert_wigner(field, with_info=True)
        purity = wf.purity_separability_check(field)
        moved = wf.propagate_field(field, params, 1.3, ps)
        return forward.values.tobytes(), recovered.values.tobytes(), info, purity, moved.values.tobytes()

    two = pipeline(2)
    assert counts[0] == forward_chunks
    if forward_chunks == 1:
        assert set(counts) == {1}
    assert two == pipeline(1)
    assert two[0] == field.values.tobytes()


def test_an_error_in_the_helper_share_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(transform, "_SHARES", 2)
    before = threading.active_count()
    error = ValueError("chunk 3")
    done = []

    def work(sl):
        if sl.start == 3:  # an odd chunk: the helper's share
            raise error
        done.append(sl.start)

    with pytest.raises(ValueError) as raised:
        transform._each_chunk([slice(k, k + 1) for k in range(6)], work)
    assert raised.value is error
    assert {0, 2, 4} <= set(done)  # the caller's share ran to its end
    assert threading.active_count() == before


def test_an_error_in_the_callers_share_waits_for_the_helper(monkeypatch):
    monkeypatch.setattr(transform, "_SHARES", 2)
    before = threading.active_count()
    done = []

    def work(sl):
        if sl.start == 0:
            raise KeyError(sl.start)
        done.append(sl.start)

    with pytest.raises(KeyError):
        transform._each_chunk([slice(k, k + 1) for k in range(4)], work)
    assert sorted(done) == [1, 3]
    assert threading.active_count() == before


def test_the_helper_share_runs_in_the_callers_context(monkeypatch):
    monkeypatch.setattr(transform, "_SHARES", 2)
    seen = []

    def work(sl):
        seen.append((threading.get_ident(), np.geterr()["over"]))

    with np.errstate(over="raise"):
        transform._each_chunk([slice(k, k + 1) for k in range(4)], work)
    assert len({ident for ident, _ in seen}) == 2
    assert {over for _, over in seen} == {"raise"}


def test_a_loud_wave_raises_without_a_warning_from_either_share(catalog_fields, monkeypatch):
    _, wave, ps, _ = catalog_fields("coherent")
    monkeypatch.setattr(transform, "_SHARES", 2)
    counts, threads = _spy_shares(monkeypatch)
    # lag products overflow in the multiply on about 220 rows around the peak, in chunks of
    # both shares: only the caller's np.errstate keeps the helper's overflow silent
    loud = wf.WaveSample(wave.grid, wave.values * 1e155, wave.hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalConsistencyError, match="the transform exceeds"):
            wf.wigner_transform(loud, ps)
    assert counts[0] >= 4  # several chunks on each share
    assert len(set(threads)) == 2


@pytest.mark.parametrize("shares", [1, 2])
def test_one_share_or_one_chunk_starts_no_thread(catalog_fields, shares, monkeypatch):
    """One usable core runs many chunks inline at 1025 x 2187; so do two shares where a loop
    has one chunk: the 129-node natural transform, inversion and mass, the CLI's 129 x 129
    transport."""
    params = wf.OscillatorParams(-0.6, wf.Cosine(0.1, 0.3, 1.7), 1.0)
    if shares == 1:
        _, wave, ps, field = catalog_fields("coherent")
        moved, mesh = field, ps
    else:
        grid = wf.Grid1D.symmetric(9.0, 129)
        state = wf.CoherentGaussian(0.2, -0.3, 1.0)
        wave = wf.sample_catalog_state(state, grid)
        ps = wf.natural_grid(grid, 1.0)
        field = wf.wigner_transform(wave, ps)
        mesh = wf.PhaseSpaceGrid(grid, wf.symmetric_xi_grid(6.0, 129))
        moved = wf.propagate_field(state.wigner, params, 0.0, mesh)
    monkeypatch.setattr(transform, "_SHARES", shares)
    counts, threads = _spy_shares(monkeypatch)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    wf.wigner_transform(wave, ps)
    wf.invert_wigner(field)
    wf.propagate_field(moved, params, 0.9, mesh)
    wf.total_mass(field)
    if shares == 1:  # its 196 kernel rows take two chunks at 129 nodes
        wf.purity_separability_check(field)
    # forward, two inversion sums (both anchors, then the half rows), transport, mass
    assert len(counts) == (6 if shares == 1 else 5)
    assert all(c > 1 for c in counts) if shares == 1 else set(counts) == {1}
    assert started == [] and set(threads) == {threading.get_ident()}

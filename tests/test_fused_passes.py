"""Bit pins for the passes fused into the phase-space pipeline's row-chunk loops.

Each fused pass is checked byte for byte against the one-pass form it replaces, on one share
and on two: the row sums taken where the rows are made, the mass summed as the two halves of
NumPy's pairwise tree, one phase row shared by the inversion's two anchors, and lag products
that stop at the grid edge.  The last test runs the benchmark's phase-space pipeline against
all of these one-pass forms at once.
"""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wignerflow as wf
from wignerflow import transform
from wignerflow.errors import ConfigurationError, NumericalConsistencyError

from conftest import CATALOG
from test_flow import _whole_mesh_bilinear
from test_transform import _reference_phase_sums, _spy_shares, _summed_marginal

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

SHARES = [1, 2]


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# one-pass forms
# ---------------------------------------------------------------------------

def _full_lag_rows(wave, ps, sl):
    """Rows sl of the natural-grid transform from all n lag products of each row, zeros past
    the grid edge included: the form before the products stopped at the last on-grid lag."""
    n, m = ps.shape
    c = (m - 1) // 2
    dy = 2.0 * wave.grid.step / wave.hbar
    windows = transform._lag_windows(wave)
    weights = np.exp(-2j * math.pi / m * (np.arange(n) * c % m)) * (dy / (2.0 * math.pi))
    conj_a = np.conjugate(windows[sl, n - 1 :])
    conj_a *= windows[sl, n - 1 :: -1]
    conj_a *= weights
    return np.fft.irfft(conj_a, n=m, axis=1, norm="forward")


def _full_lag_blocks(wave, ps, block=256):
    """(rows, values) of the full-lag transform, block after block."""
    for k in range(0, ps.shape[0], block):
        yield slice(k, k + block), _full_lag_rows(wave, ps, slice(k, k + block))


def _one_pass_mass(ps, values):
    return ps.x_grid.step * ps.xi_grid.step * values.sum()


def _separate_anchor_products(field, k_targets, k_anchor, second=None):
    """_anchor_products as one whole-array reference pass per (targets, anchor) pair."""
    products = []
    for targets, anchor in [(k_targets, k_anchor)] + ([second] if second is not None else []):
        mids = (targets + anchor) // 2

        def rows_at(sl, mids=mids):
            return field.values[mids[sl]]

        products += _reference_phase_sums(field, targets - anchor, (0, targets.size, rows_at))
    return products


# ---------------------------------------------------------------------------
# row sums taken where the rows are made
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shares", SHARES)
@pytest.mark.parametrize("state_id", ["coherent", "gauss_general"])
def test_row_sums_taken_in_the_loops_equal_the_one_pass_sums(catalog_fields, state_id, shares,
                                                             monkeypatch):
    state, wave, ps, field = catalog_fields(state_id)
    monkeypatch.setattr(transform, "_SHARES", shares)
    counts, _ = _spy_shares(monkeypatch)
    params = wf.OscillatorParams(0.8, wf.Cosine(0.1, 0.2, 0.7), 1.0)
    small = wf.PhaseSpaceGrid(wf.Grid1D.symmetric(8.0, 257), wf.symmetric_xi_grid(7.0, 301))
    made = [
        wf.wigner_transform(wave, ps),
        wf.propagate_field(field, params, 1.3, ps),  # gridded: the row-chunk loop in two shares
        wf.propagate_field(state.wigner, params, 1.3, small),  # closed form: on the caller
    ]
    assert counts[0] > 2 and counts[1] > 2  # many chunks: the sums are taken chunk by chunk
    for built in made:
        assert built._row_sums.tobytes() == built.values.sum(axis=1).tobytes()


# ---------------------------------------------------------------------------
# the mass as the two halves of the pairwise tree
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shares", SHARES)
@pytest.mark.parametrize("shape", [(2, 64), (3, 43), (37, 53), (1025, 2187)],
                         ids=["n128", "n129", "n1961", "natural"])
def test_total_mass_equals_the_one_pass_sum(shape, shares, monkeypatch):
    rows, cols = shape
    ps = wf.PhaseSpaceGrid(wf.Grid1D.symmetric(4.0, rows), wf.Grid1D.symmetric(3.0, cols))
    rng = np.random.default_rng(rows * cols)
    # magnitudes over 16 decades: the sum's bits depend on the order of its additions
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    field = wf.WignerField(ps, values, 1.0)
    monkeypatch.setattr(transform, "_SHARES", shares)
    if rows * cols < 10**4:
        monkeypatch.setattr(transform, "_CHUNK_BYTES", 0)  # split even a small field
    counts, threads = _spy_shares(monkeypatch)
    mass = wf.total_mass(field)
    assert counts == [1 if rows * cols <= 128 else 2]
    assert len(set(threads)) == (2 if shares == 2 and rows * cols > 128 else 1)
    assert _bytes(mass) == _bytes(_one_pass_mass(ps, values))


# ---------------------------------------------------------------------------
# one phase row for both inversion anchors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shares", SHARES)
@pytest.mark.parametrize("chunk_rows", [None, 9])
@pytest.mark.parametrize("k_star, k2", [(0, 1), (1, 0), (1, 128), (128, 1)])
def test_shared_phase_rows_equal_two_separate_passes(k_star, k2, chunk_rows, shares, monkeypatch):
    grid = wf.Grid1D.symmetric(9.0, 129)
    field = wf.wigner_transform(wf.sample_catalog_state(wf.CoherentGaussian(0.3, -0.4, 1.0), grid),
                                wf.natural_grid(grid, 1.0))
    n, m = field.grid.shape
    monkeypatch.setattr(transform, "_SHARES", shares)
    # one chunk, or chunks whose edges cut the two anchors' runs of shifts
    fixed = 16 * np.getbufsize() + 36 * m + 16 * (n + 1)
    budget = 1 << 40 if chunk_rows is None else fixed + chunk_rows * shares * 56 * m
    monkeypatch.setattr(transform, "_CHUNK_BYTES", budget)
    counts, _ = _spy_shares(monkeypatch)
    k_all = np.arange(n)
    same, opp = k_all[(k_all + k_star) % 2 == 0], k_all[(k_all + k_star) % 2 == 1]
    got = transform._anchor_products(field, same, k_star, (opp, k2))
    assert (counts == [1]) if chunk_rows is None else (counts[0] > 2)
    reference = _separate_anchor_products(field, same, k_star, (opp, k2))
    assert [p.tobytes() for p in got] == [p.tobytes() for p in reference]


# ---------------------------------------------------------------------------
# lag products that stop at the grid edge
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("state_id", sorted(CATALOG))
def test_truncated_lags_equal_full_lags(catalog_fields, state_id, monkeypatch):
    _, wave, ps, field = catalog_fields(state_id)
    for rows, values in _full_lag_blocks(wave, ps):
        assert field.values[rows].tobytes() == values.tobytes()
    if field.values.nbytes > 2**27:  # delta_bound's 278 MB: its bits are pinned above
        return
    # the other share count than the one that built the cached field: the same bits
    monkeypatch.setattr(transform, "_SHARES", 3 - transform._SHARES)
    values, row_sums = transform._half_spectrum(wave, ps)
    assert values.tobytes() == field.values.tobytes()
    assert row_sums.tobytes() == field._row_sums.tobytes()


# ---------------------------------------------------------------------------
# the layout of the values
# ---------------------------------------------------------------------------

def test_a_fortran_ordered_field_gives_the_bits_of_the_c_ordered_one(catalog_fields):
    _, _, ps, field = catalog_fields("coherent")
    fortran = wf.WignerField(ps, np.asfortranarray(field.values), field.hbar)
    assert fortran.values.flags.c_contiguous
    assert np.shares_memory(wf.WignerField(ps, field.values, field.hbar).values, field.values)

    def results(f):
        recovered, info = wf.invert_wigner(f, with_info=True)
        return (wf.position_marginal(f).tobytes(), wf.momentum_marginal(f).tobytes(),
                _bytes(wf.total_mass(f)), recovered.values.tobytes(), info,
                _bytes(wf.purity_separability_check(f)))

    assert results(fortran) == results(field)


# ---------------------------------------------------------------------------
# errors, unchanged
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [[math.nan], [math.inf], [-math.inf], [math.inf, -math.inf]],
                         ids=["nan", "inf", "-inf", "inf-inf"])
def test_a_non_finite_closed_form_value_is_a_configuration_error(bad):
    state = wf.CoherentGaussian(0.2, -0.1, 1.0)
    ps = wf.PhaseSpaceGrid(wf.Grid1D.symmetric(6.0, 61), wf.symmetric_xi_grid(6.0, 61))

    def closed_form(x, xi):
        values = state.wigner(x, xi)
        values[30, 7 : 7 + len(bad)] = bad
        return values

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="field values must be finite"):
            wf.propagate_field(closed_form, wf.OscillatorParams(0.5), 0.4, ps)


def test_a_transported_field_whose_row_sums_overflow_builds_and_its_marginal_raises():
    ps = wf.PhaseSpaceGrid(wf.Grid1D.symmetric(6.0, 61), wf.symmetric_xi_grid(6.0, 61))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moved = wf.propagate_field(lambda x, xi: np.full(np.broadcast(x, xi).shape, 1e308),
                                   wf.OscillatorParams(0.5), 0.4, ps)
        assert np.all(moved._row_sums == math.inf)
        with pytest.raises(NumericalConsistencyError, match="position marginal exceeds"):
            wf.position_marginal(moved)


@pytest.mark.parametrize("signs", [(1.0, 1.0), (1.0, -1.0)], ids=["inf", "inf-inf"])
def test_a_mass_whose_halves_overflow_raises_without_a_warning_from_either_share(signs,
                                                                                 monkeypatch):
    ps = wf.PhaseSpaceGrid(wf.Grid1D.symmetric(4.0, 64), wf.Grid1D.symmetric(3.0, 65))
    values = np.full(ps.shape, 1e308)
    values[32:] *= signs[1]  # the second half of the rows: the second half of the tree
    field = wf.WignerField(ps, values, 1.0)
    monkeypatch.setattr(transform, "_SHARES", 2)
    monkeypatch.setattr(transform, "_CHUNK_BYTES", 0)
    _, threads = _spy_shares(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalConsistencyError, match="the total mass exceeds"):
            wf.total_mass(field)
    assert len(set(threads)) == 2


# ---------------------------------------------------------------------------
# the benchmark pipeline, byte for byte against the one-pass forms
# ---------------------------------------------------------------------------

def _benchmark_cases():
    return [(seed, i) for seed in (909, 4242) for i in range(4)]


@pytest.fixture(scope="module")
def benchmark_pools(tmp_path_factory):
    work = tmp_path_factory.mktemp("phase_space")
    return {seed: workloads.PhaseSpace(seed, work).pools["pipeline"] for seed in (909, 4242)}


@pytest.mark.parametrize("seed, index", _benchmark_cases())
def test_the_benchmark_pipeline_has_the_bits_of_the_one_pass_forms(benchmark_pools, seed, index,
                                                                   monkeypatch):
    case = benchmark_pools[seed][index]
    ps, params = case.ps_grid, case.oscillator
    wave = wf.normalize_sample(wf.sample_catalog_state(case.state, ps.x_grid))

    def pipeline():
        field = wf.wigner_transform(wave, ps)
        moved = wf.propagate_field(field, params, case.t, ps)
        recovered, info = wf.invert_wigner(field, with_info=True)
        return (field.values.tobytes(), wf.position_marginal(field).tobytes(),
                _bytes(wf.total_mass(field)), moved.values.tobytes(), _bytes(wf.total_mass(moved)),
                recovered.values.tobytes(), info, _bytes(wf.purity_separability_check(field)))

    runs = []
    for shares in SHARES:
        monkeypatch.setattr(transform, "_SHARES", shares)
        runs.append(pipeline())
    assert runs[0] == runs[1]

    values = np.concatenate([block for _, block in _full_lag_blocks(wave, ps)])
    reference_field = wf.WignerField(ps, values, wave.hbar)
    moved = _whole_mesh_bilinear(reference_field, wf.flow_coefficients(params, case.t), ps)
    monkeypatch.setattr(transform, "position_marginal", _summed_marginal)
    monkeypatch.setattr(transform, "_anchor_products", _separate_anchor_products)
    monkeypatch.setattr(transform, "_lattice_phase_sums", _reference_phase_sums)
    recovered, info = wf.invert_wigner(reference_field, with_info=True)
    reference = (values.tobytes(), _summed_marginal(reference_field).tobytes(),
                 _bytes(_one_pass_mass(ps, values)), moved.tobytes(),
                 _bytes(_one_pass_mass(ps, moved)), recovered.values.tobytes(), info,
                 _bytes(wf.purity_separability_check(reference_field)))
    assert runs[0] == reference

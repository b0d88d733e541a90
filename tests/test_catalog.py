"""Analytic catalog: point values, classifier, energies, identities."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special

import wignerflow as wf
from wignerflow.errors import ConfigurationError, NumericalConsistencyError

from conftest import CATALOG, PARITY_STATES, fidelity

ALL_IDS = sorted(CATALOG)


# ---------------------------------------------------------------------------
# wavefunction and transform point values
# ---------------------------------------------------------------------------

def test_delta_bound_wavefunction_values():
    state = wf.DeltaBound(-2.0, 1.0)
    assert state.kappa == pytest.approx(1.0)
    assert complex(state.psi(0.0)) == pytest.approx(1.0)
    assert complex(state.psi(1.0)) == pytest.approx(math.exp(-1.0))


def test_delta_bound_reads_zero_where_kappa_leaves_the_double_range():
    # kappa = |gamma|/(2 hbar^2) underflows at hbar = 1e155 and overflows at hbar = 1e-200
    for hbar in (1e155, 1e-200):
        state = wf.DeltaBound(-1.0, hbar)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert state.wigner(0.5, 0.1) == 0.0


@pytest.mark.parametrize("hbar", [1e-160, 1e85, 1e90, 1e100, 1e105, 1e300])
def test_delta_bound_wigner_origin_is_one_over_pi_hbar_at_extreme_hbar(hbar):
    # kappa^2 hbar^2 underflows from about hbar = 1e85 and kappa overflows below 1e-154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = wf.DeltaBound(-1.0, hbar).wigner(0.0, 0.0)
    assert value == pytest.approx(1.0 / (math.pi * hbar), rel=1e-14)


def _centres(h):
    """(state, its centre (x, xi), |psi| and W there in closed form) for every catalog state."""
    x0 = -0.2 / 2.6  # GaussGeneral: the peak of |psi|^2, and the xi where its u vanishes
    z = complex(1.0, 4.0 * h * 0.5)
    return [
        (wf.Box(1.5, h), (0.0, 0.0), 1.0 / math.sqrt(3.0), 1.0 / (math.pi * h)),
        (wf.GaussGeneral(1.3, 0.4, 0.2, -0.5, 0.3, 0.1, h), (x0, -h * (0.4 * x0 - 0.25)),
         math.exp((0.04 / 5.2 - 0.3) / 2.0), math.exp(0.04 / 5.2 - 0.3) / (h * math.sqrt(math.pi * 1.3))),
        (wf.CoherentGaussian(0.5, -0.3, h), (0.5, -0.3), (math.pi * h) ** -0.25, 1.0 / (math.pi * h)),
        (wf.FreeEvolvedGaussian(0.5, h), (0.0, 0.0), (2.0 / math.pi) ** 0.25 / math.sqrt(abs(z)),
         1.0 / (math.pi * h)),
        (wf.DeltaBound(-1.0, h), (0.0, 0.0), math.sqrt(0.5) / h, 1.0 / (math.pi * h)),
        (wf.Soliton(-1.0, h), (0.0, 0.0), 1.0 / (math.sqrt(8.0) * h), 1.0 / (math.pi * h)),
        (wf.HarmonicEigen(2, 0.7, h, normalized=True), (0.0, 0.0),
         (0.7 / (math.pi * h)) ** 0.25 / math.sqrt(2.0), 1.0 / (math.pi * h)),
    ]


@pytest.mark.parametrize("hbar", [1e-300, 1e-200, 1e-170, 1e-160, 1e200, 1e300])
def test_free_gaussian_and_soliton_centres_at_tiny_hbar(hbar):
    # every catalog state at its centre, where hbar^2 underflows (from about hbar = 1e-162) or
    # overflows (1e154) and scales such as nu/(4 hbar^2) leave the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [(state, abs(state.psi(x)), state.wigner(x, xi), psi, w)
                  for state, (x, xi), psi, w in _centres(hbar)]
        free, soliton = wf.FreeEvolvedGaussian(0.5, hbar), wf.Soliton(-1.0, hbar)
        tails = [free.wigner(0.5, 0.1), soliton.psi(0.5), soliton.wigner(0.5, 0.1)]
    wrong = [(state, got_psi, got_w) for state, got_psi, got_w, psi, w in values
             if got_psi != pytest.approx(psi, rel=1e-14, abs=0.0)
             or got_w != pytest.approx(w, rel=1e-14, abs=0.0)]
    assert wrong == []
    if hbar < 1.0:
        assert tails == [0.0, 0.0, 0.0]


def test_general_gaussian_wigner_is_its_expanded_exponent():
    # the 7-term expansion of the exponent over 4 a1 hbar^2, as it was written before the square
    # was completed.  It forms hbar^2, so it holds only at ordinary hbar, and its terms cancel
    # to the local momentum's square, so its own rounding grows with (a2 x)^2 / a1
    rng = np.random.default_rng(2024)
    for _ in range(200):
        a1, hbar = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        a2, b1, b2, c1, c2 = rng.uniform(-1.0, 1.0, 5)
        state = wf.GaussGeneral(a1, a2, b1, b2, c1, c2, hbar)
        centre = -b1 / (2.0 * a1)
        x = centre + rng.uniform(-4.0, 4.0, 64) / math.sqrt(a1)
        xi = -hbar * (a2 * x + b2 / 2.0) + rng.uniform(-4.0, 4.0, 64) * hbar * math.sqrt(a1)
        h = hbar
        num = (
            4.0 * h * h * (a1 * a1 + a2 * a2) * x * x
            + 8.0 * a2 * h * x * xi
            + 4.0 * h * h * (a1 * b1 + a2 * b2) * x
            + b2 * b2 * h * h
            + 4.0 * a1 * c1 * h * h
            + 4.0 * b2 * h * xi
            + 4.0 * xi * xi
        )
        expanded = np.exp(-num / (4.0 * a1 * h * h)) / (h * math.sqrt(math.pi * a1))
        peak = math.exp(b1 * b1 / (4.0 * a1) - c1) / (h * math.sqrt(math.pi * a1))
        kept = expanded > 1e-6 * peak
        assert kept.any()
        np.testing.assert_allclose(state.wigner(x, xi)[kept], expanded[kept], rtol=1e-13)


def test_box_wavefunction_values():
    state = wf.Box(1.0, 2.0)
    assert complex(state.psi(0.0)) == pytest.approx(1.0 / math.sqrt(2.0))
    assert complex(state.psi(2.0)) == 0.0
    # closed-interval support convention
    assert complex(state.psi(1.0)) == pytest.approx(1.0 / math.sqrt(2.0))


def test_coherent_wavefunction_value():
    state = wf.CoherentGaussian(0.0, 0.0, 1.0)
    assert complex(state.psi(0.0)) == pytest.approx(math.pi ** -0.25)


def test_coherent_wigner_peak():
    for a, p0, hbar in ((0.0, 0.0, 1.0), (-1.2, 0.7, 0.5)):
        state = wf.CoherentGaussian(a, p0, hbar)
        assert float(state.wigner(a, p0)) == pytest.approx(1.0 / (math.pi * hbar))


def test_soliton_origin_limit():
    state = wf.Soliton(-4.0, 1.0)
    assert float(state.wigner(0.0, 0.0)) == pytest.approx(1.0 / math.pi, rel=1e-12)
    # approach along a generic ray
    assert float(state.wigner(1e-9, -3e-9)) == pytest.approx(1.0 / math.pi, rel=1e-9)


def test_delta_bound_wigner_origin():
    for gamma, hbar in ((-2.0, 1.0), (-3.0, 0.7)):
        state = wf.DeltaBound(gamma, hbar)
        assert float(state.wigner(0.0, 0.0)) == pytest.approx(1.0 / (math.pi * hbar))


def test_harmonic_ground_state_constant():
    state = wf.HarmonicEigen(0, 1.0, 1.0, normalized=True)
    xs = np.array([0.0, 0.5, -1.0])
    xis = np.array([0.0, -0.3, 0.8])
    expected = np.exp(-(xis**2 + xs**2)) / math.pi
    np.testing.assert_allclose(state.wigner(xs, xis), expected, rtol=1e-13)


def test_free_evolved_initial_profile():
    state = wf.FreeEvolvedGaussian(0.0, 1.0)
    assert complex(state.psi(0.0)) == pytest.approx((2.0 / math.pi) ** 0.25)
    assert state.psi(np.array([0.3])).imag[0] == 0.0


def test_polynomials_match_scipy():
    xs = np.linspace(-4.0, 4.0, 41)
    for n in range(12):
        np.testing.assert_allclose(
            wf.hermite_polynomial(n, xs),
            scipy.special.eval_hermite(n, xs),
            rtol=1e-10,
        )
        np.testing.assert_allclose(
            wf.laguerre_polynomial(n, xs),
            scipy.special.eval_laguerre(n, xs),
            rtol=1e-10,
            atol=1e-12,
        )
    with pytest.raises(ConfigurationError):
        wf.hermite_polynomial(61, 0.0)


# ---------------------------------------------------------------------------
# Hudson classification and energies
# ---------------------------------------------------------------------------

def test_hudson_positivity_classification():
    assert wf.hudson_positivity(wf.CoherentGaussian(0.0, 0.0, 1.0))
    assert wf.hudson_positivity(wf.GaussGeneral(1.0, hbar=1.0))
    assert wf.hudson_positivity(wf.FreeEvolvedGaussian(0.4, 1.0))
    assert wf.hudson_positivity(wf.Hermite(0, 1.0))
    assert not wf.hudson_positivity(wf.Hermite(1, 1.0))
    assert not wf.hudson_positivity(wf.Box(1.0, 2.0))
    assert not wf.hudson_positivity(wf.DeltaBound(-2.0, 1.0))
    assert not wf.hudson_positivity(wf.Soliton(-4.0, 1.0))


@pytest.mark.parametrize("state_id", ALL_IDS)
def test_hudson_classification_against_grid_minimum(catalog_fields, state_id):
    state, _, _, field = catalog_fields(state_id)
    grid_min = float(np.min(field.values))
    if wf.hudson_positivity(state):
        assert grid_min >= -1e-9
    else:
        assert grid_min < -1e-9


@pytest.mark.parametrize("make", [
    lambda: wf.Box(0.0),
    lambda: wf.CoherentGaussian(0.0, 0.0, 0.0),
    lambda: wf.CoherentGaussian(math.nan, 0.0),
    lambda: wf.CoherentGaussian(0.0, math.inf),
    lambda: wf.Hermite(61),
    lambda: wf.HarmonicEigen(1, omega=0.0),
    lambda: wf.DeltaBound(1.0),
    lambda: wf.Soliton(0.0),
])
def test_catalog_states_reject_invalid_parameters(make):
    with pytest.raises(ConfigurationError):
        make()


def test_hermite_is_the_oscillator_level_of_omega_hbar():
    for n, hbar, normalized in ((0, 1.0, True), (3, 0.7, False), (5, 2.5, True)):
        state = wf.Hermite(n, hbar, normalized)
        assert state == wf.HarmonicEigen(n, omega=hbar, hbar=hbar, normalized=normalized)
        xs = np.linspace(-6.0, 6.0, 97)
        plain = wf.hermite_polynomial(n, xs) * np.exp(-0.5 * xs * xs)
        if normalized:
            plain = plain / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        np.testing.assert_array_equal(state.psi(xs), plain.astype(complex))  # bit for bit
    assert wf.default_grid(wf.Hermite(4)) == wf.Grid1D.symmetric(12.0, 1281)


@pytest.mark.parametrize("hbar_t", [1e154, 1e160, 1e300])
def test_free_gaussian_default_grid_where_hbar_t_squared_overflows(hbar_t):
    # the half width 5.5 |1 + 4i hbar t| stays a double where (hbar t)^2 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = wf.default_grid(wf.FreeEvolvedGaussian(0.5, 2.0 * hbar_t))
    assert grid.count == 1025
    assert -grid.x_min == pytest.approx(22.0 * hbar_t, rel=1e-15)
    assert grid.x_max == pytest.approx(22.0 * hbar_t, rel=1e-12)


def test_harmonic_energy_values():
    assert wf.harmonic_energy(0, 1.0, 1.0) == 1.0
    assert wf.harmonic_energy(2, 0.5, 1.0) == 2.5
    for n in range(5):
        assert wf.harmonic_energy(n, 0.0, 1.0) == 0.0
    with pytest.raises(ConfigurationError):
        wf.harmonic_energy(-1, 1.0, 1.0)


# ---------------------------------------------------------------------------
# node-wise cross-check: discrete transform vs closed form
# ---------------------------------------------------------------------------

POINTWISE_CASES = {
    "coherent": (CATALOG["coherent"], None),
    "gauss_general": (CATALOG["gauss_general"], None),
    "hermite2": (CATALOG["hermite2"], None),
    "hermite5": (CATALOG["hermite5"], None),
    "free_gaussian": (CATALOG["free_gaussian"], None),
    "soliton": (CATALOG["soliton"], None),
    "harmonic_eigen": (CATALOG["harmonic_eigen"], None),
    # the cusp state needs a dedicated fine grid; kappa = 1 at this (gamma, hbar)
    "delta_bound_fine": (wf.DeltaBound(-131072.0, 256.0), wf.Grid1D.symmetric(28.0, 2161)),
}


@pytest.mark.parametrize("case_id", sorted(POINTWISE_CASES))
def test_transform_matches_closed_form_nodewise(case_id):
    state, grid = POINTWISE_CASES[case_id]
    if grid is None:
        grid = wf.default_grid(state)
    ps = wf.natural_grid(grid, state.hbar)
    field = wf.wigner_transform(wf.sample_catalog_state(state, grid), ps)
    exact = state.wigner(ps.x_grid.nodes()[:, None], ps.xi_grid.nodes()[None, :])
    assert np.max(np.abs(field.values - exact)) <= 1e-6


def test_box_transform_matches_closed_form_nodewise():
    # restricted xi window: the sinc tail of the box state decays only like
    # 1/xi, so the discrete lattice distortion is checked where it is small
    box = wf.Box(1.0, 2.0)
    step = 2.0 / 1401.0
    grid = wf.Grid1D(-750.0 * step, step, 1501)
    ps = wf.PhaseSpaceGrid(grid, wf.symmetric_xi_grid(20.0, 321))
    field = wf.wigner_transform(wf.sample_catalog_state(box, grid), ps)
    exact = box.wigner(ps.x_grid.nodes()[:, None], ps.xi_grid.nodes()[None, :])
    assert np.max(np.abs(field.values - exact)) <= 1e-6


# ---------------------------------------------------------------------------
# transform identities on the whole catalog
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("state_id", ALL_IDS)
def test_position_marginal_identity(catalog_fields, state_id):
    _, wave, _, field = catalog_fields(state_id)
    target = np.abs(wave.values) ** 2
    assert np.max(np.abs(wf.position_marginal(field) - target)) <= 1e-6


@pytest.mark.parametrize("state_id", ALL_IDS)
def test_momentum_marginal_identity(catalog_fields, state_id):
    _, wave, ps, field = catalog_fields(state_id)
    xi = ps.xi_grid.nodes()
    xs = wave.grid.nodes()
    # independent oracle: direct discrete Fourier transform of the wavefunction
    ft = wave.grid.step / (2.0 * math.pi) * (
        wave.values[None, :] * np.exp(-1j * np.outer(xi / wave.hbar, xs))
    ).sum(axis=1)
    target = 2.0 * math.pi / wave.hbar * np.abs(ft) ** 2
    assert np.max(np.abs(wf.momentum_marginal(field) - target)) <= 1e-6


@pytest.mark.parametrize("state_id", ALL_IDS)
def test_mass_identity(catalog_fields, state_id):
    _, _, _, field = catalog_fields(state_id)
    assert abs(wf.total_mass(field) - 1.0) <= 1e-6


@pytest.mark.parametrize("state_id", ALL_IDS)
def test_overlap_norm_identity(catalog_fields, state_id):
    _, wave, _, field = catalog_fields(state_id)
    assert abs(wf.overlap_identity(field, field) - wave.norm_sq() ** 2) <= 1e-6


@pytest.mark.parametrize("state_id", ALL_IDS)
def test_sup_norm_bound(catalog_fields, state_id):
    _, _, _, field = catalog_fields(state_id)
    assert wf.sup_norm_bound_slack(field) <= 1e-9


@pytest.mark.parametrize("state_id", ALL_IDS)
def test_inversion_round_trip_fidelity(catalog_fields, state_id):
    _, wave, _, field = catalog_fields(state_id)
    recovered = wf.invert_wigner(field)
    assert fidelity(recovered, wave) >= 1.0 - 1e-6


@pytest.mark.parametrize("state_id", PARITY_STATES)
def test_parity_across_catalog(catalog_fields, state_id):
    _, _, _, field = catalog_fields(state_id)
    assert np.max(np.abs(field.values[::-1, :] - field.values[:, ::-1])) <= 1e-8


def test_soliton_evenness_of_closed_form():
    state = CATALOG["soliton"]
    xs = np.linspace(-3.0, 3.0, 31)[:, None]
    xis = np.linspace(-4.0, 4.0, 33)[None, :]
    w = state.wigner(xs, xis)
    np.testing.assert_allclose(state.wigner(-xs, xis), state.wigner(xs, -xis), atol=1e-15)
    np.testing.assert_allclose(state.wigner(-xs, xis), w, atol=1e-15)


# ---------------------------------------------------------------------------
# box-state truncated L1 mass
# ---------------------------------------------------------------------------

def test_box_l1_mass_grows_with_cutoff():
    assert wf.box_l1_growth(1.0, 2.0, 100.0) > wf.box_l1_growth(1.0, 2.0, 10.0)


def test_box_l1_logarithmic_signature():
    m1 = wf.box_l1_growth(1.0, 2.0, 10.0)
    m2 = wf.box_l1_growth(1.0, 2.0, 100.0)
    m3 = wf.box_l1_growth(1.0, 2.0, 1000.0)
    ratio = (m3 - m2) / (m2 - m1)
    assert abs(ratio - 1.0) <= 0.25
    # positive slope fit against log(Xi)
    slope = (m3 - m1) / math.log(1000.0 / 10.0)
    assert slope > 0.0


def test_box_l1_mass_against_2d_quadrature_oracle():
    box = wf.Box(1.0, 2.0)
    xi_cut = 30.0
    xs = np.linspace(-1.0, 1.0, 1001)
    xis = np.linspace(-xi_cut, xi_cut, 2001)
    vals = np.abs(box.wigner(xs[:, None], xis[None, :]))
    oracle = np.trapezoid(np.trapezoid(vals, xis, axis=1), xs)
    assert wf.box_l1_growth(1.0, 2.0, xi_cut) == pytest.approx(oracle, rel=1e-4)  # 3.5e-6 here


def test_box_l1_dominates_signed_mass():
    box = wf.Box(1.0, 2.0)
    xi_cut = 50.0
    xs = np.linspace(-1.0, 1.0, 2001)
    xis = np.linspace(-xi_cut, xi_cut, 4001)
    vals = box.wigner(xs[:, None], xis[None, :])
    signed = np.trapezoid(np.trapezoid(vals, xis, axis=1), xs)
    assert wf.box_l1_growth(1.0, 2.0, xi_cut) >= signed


def _box_l1_oracle(U: float) -> float:
    """(2/pi) Int_0^U F(u)/u^2 du at 30 digits, split at each k pi, where F(u) = 2k + 1 -
    (-1)^k cos u: the first half period by quadrature, each later piece in closed form through
    Int cos u/u^2 du = -cos u/u - Si(u)."""
    with mpmath.workdps(30):
        U = mpmath.mpf(U)
        edges = [k * mpmath.pi for k in range(int(mpmath.floor(U / mpmath.pi)) + 1)] + [U]
        total = mpmath.quad(lambda u: (1 - mpmath.cos(u)) / u**2 if u else mpmath.mpf(0.5),
                            [0, edges[1]])

        def primitive(u):
            return -mpmath.cos(u) / u - mpmath.si(u)

        for k, (a, b) in enumerate(zip(edges[1:-1], edges[2:]), start=1):
            total += (2 * k + 1) * (1 / a - 1 / b) - (-1) ** k * (primitive(b) - primitive(a))
        return float(2 / mpmath.pi * total)


@pytest.mark.parametrize("U", [1e-3, 0.5, 3.0, 3.2, 7.7, 33.3, 100.0, 314.0, 1000.0, 2000.0])
def test_box_l1_mass_against_mpmath_oracle(U):
    # 2 Xi R / hbar = U at R = U/4, hbar = 1, Xi = 2
    assert wf.box_l1_growth(U / 4.0, 1.0, 2.0) == pytest.approx(_box_l1_oracle(U), rel=1e-13)


def test_box_l1_mass_at_a_cutoff_near_the_top_of_the_double_range():
    # 2 Xi R / hbar = 4e300; the mpmath value is 280.82584498158343
    assert wf.box_l1_growth(1e150, 1e-150, 2.0) == pytest.approx(280.82584498158343, rel=1e-14)


def test_box_l1_mass_below_the_first_half_period_scales_with_the_cutoff():
    # Int_0^U (1 - cos u)/u^2 du = U/2 - U^3/72 + ..., so the mass is U/pi to rounding
    for U in (1e-8, 1e-160, 1e-300):
        assert wf.box_l1_growth(U / 4.0, 1.0, 2.0) == pytest.approx(U / math.pi, rel=1e-15)
    assert wf.box_l1_growth(5e-324, 1e308, 2.0) == 0.0  # the cutoff underflows to 0


def test_digamma_matches_scipy():
    from wignerflow.catalog import _digamma

    z = np.concatenate([np.geomspace(1e-3, 1e300, 22000), np.linspace(1e-3, 20.0, 20000)])
    ref = scipy.special.digamma(z)
    assert np.max(np.abs(_digamma(z) - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-14


def test_box_l1_requires_unit_exceeding_cutoff():
    with pytest.raises(ConfigurationError):
        wf.box_l1_growth(1.0, 2.0, 0.5)


# ---------------------------------------------------------------------------
# normalisation flags
# ---------------------------------------------------------------------------

def test_unnormalized_hermite_carries_squared_norm():
    # phi_1 = 2x e^{-x^2/2}: squared norm 2 sqrt(pi); the transform carries it
    state = wf.Hermite(1, 1.0, normalized=False)
    norm_sq = 2.0 * math.sqrt(math.pi)
    normalized = wf.Hermite(1, 1.0, normalized=True)
    assert float(state.wigner(0.3, -0.4)) == pytest.approx(
        norm_sq * float(normalized.wigner(0.3, -0.4)), rel=1e-13
    )
    grid = wf.default_grid(state)
    ps = wf.natural_grid(grid, 1.0)
    field = wf.wigner_transform(wf.sample_catalog_state(state, grid), ps)
    assert wf.total_mass(field) == pytest.approx(norm_sq, rel=1e-10)


def test_normalize_sample_gives_exact_unit_mass():
    state = wf.DeltaBound(-2.0, 1.0)
    grid = wf.default_grid(state)
    wave = wf.normalize_sample(wf.sample_catalog_state(state, grid))
    assert wave.norm_sq() == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# evaluators at the far-off backward images of an unstable flow
# ---------------------------------------------------------------------------

DECAYING_STATES = [
    wf.CoherentGaussian(0.5, 0.0, 1.0),
    wf.HarmonicEigen(2, 1.0, 1.0),
    wf.Hermite(3),
    wf.FreeEvolvedGaussian(0.5),
    wf.GaussGeneral(1.2, 0.3, 0.2),
    wf.DeltaBound(-1.0),
    wf.Soliton(-1.0),
]
DECAYING_IDS = ["CoherentGaussian", "HarmonicEigen", "Hermite", "FreeEvolvedGaussian",
                "GaussGeneral", "DeltaBound", "Soliton"]


@pytest.mark.parametrize("state", DECAYING_STATES, ids=DECAYING_IDS)
@pytest.mark.parametrize("t", [100.0, 200.0, 300.0])
def test_transport_to_huge_backward_images_reads_zero_without_a_warning(state, t):
    # gamma = -1: the backward images reach ~1e87 (t = 100) to ~1e260 (t = 300), finite,
    # but their squares overflow; the true values there underflow to 0
    g = wf.Grid1D.symmetric(6.0, 9)
    ps = wf.PhaseSpaceGrid(g, g)
    params = wf.OscillatorParams(-1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moved = wf.propagate_field(state.wigner, params, t, ps)
    x, xi = wf.backward_map(wf.flow_coefficients(params, t), g.nodes()[:, None], g.nodes()[None, :])
    far = np.hypot(x, xi) > 1e10  # e^{-1e10} and below: 0 in double precision
    assert far.sum() > 0 and np.all(moved.values[far] == 0.0)
    near = state.wigner(x[~far], xi[~far])
    assert np.array_equal(moved.values[~far], near) and np.all(np.isfinite(near))


@pytest.mark.parametrize("state", DECAYING_STATES, ids=DECAYING_IDS)
def test_decaying_evaluators_are_zero_where_the_exponent_overflows(state):
    x = np.array([1e200, -1e200, 3e155, 0.0, np.inf])
    xi = np.array([0.0, 1e200, -3e155, 1e300, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = state.wigner(x, xi)
    assert np.all(values == 0.0)


@pytest.mark.parametrize("state_id", ALL_IDS)
def test_every_state_transports_to_huge_backward_images_as_a_finite_field(state_id):
    g = wf.Grid1D.symmetric(6.0, 9)
    ps = wf.PhaseSpaceGrid(g, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (100.0, 200.0, 300.0):
            moved = wf.propagate_field(CATALOG[state_id].wigner, wf.OscillatorParams(-1.0), t, ps)
            assert np.all(np.isfinite(moved.values))


@pytest.mark.parametrize("state_id", ALL_IDS)
def test_nan_query_point_is_a_configuration_error_in_every_evaluator(state_id):
    state = CATALOG[state_id]
    calls = [
        lambda: state.psi(math.nan),
        lambda: state.psi(np.array([0.0, math.nan])),
        lambda: state.wigner(math.nan, 0.0),
        lambda: state.wigner(0.0, math.nan),
        lambda: state.wigner(np.array([[0.5], [math.nan]]), np.array([0.0, 1.0])),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError, match="query point is nan"):
            call()


@pytest.mark.parametrize("z", [650.0, 705.0, 720.0, 740.0, 800.0, 1e5])
def test_x_over_sinh_tail_matches_mpmath(z):
    # relative accuracy while z/sinh(z) is a normal double; below the smallest normal double
    # (from |z| ~ 714 on) a result of 0 is within the bottom of the double range
    from wignerflow.catalog import _x_over_sinh

    for s in (z, -z):
        with mpmath.workdps(40):
            exact = float(mpmath.mpf(s) / mpmath.sinh(mpmath.mpf(s)))
        with np.errstate(over="ignore"):  # as inside every catalog evaluator
            got = float(_x_over_sinh(np.array([s]))[0])
        tiny = np.finfo(float).tiny
        assert abs(got - exact) <= 4.0 * np.finfo(float).eps * exact + tiny, (s, got, exact)
        assert got == 0.0 or exact >= tiny


def test_box_l1_growth_raises_where_its_cutoff_leaves_the_double_range():
    # 2 Xi R / hbar = 2e400 from finite parameters; the half-period count is not an integer
    with pytest.raises(NumericalConsistencyError, match="cutoff"):
        wf.box_l1_growth(1e200, 1e-200, 2.0)

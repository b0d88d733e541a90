"""The error contract at extreme inputs: every public evaluator returns a finite result or
raises a WignerflowError, and never lets a warning or another exception escape.

Hypothesis draws the query arguments (points x and xi, times t, packet centres a and p0,
and the barrier omega of the tunneling functions) and the constant and cosine drive
parameters (lam, b, Omega) as log-uniform magnitudes of both signs from 1e-300 to 1e300,
plus 0 and +-inf, and hbar of the Gaussian and tunneling functions as a positive
log-uniform magnitude.  The curvature gamma is a fixed value or a log-uniform magnitude of
either sign.  Every parameter of box_l1_growth and delta_stationary_residual is drawn
log-uniform too.  A tabulated drive of 2 to 12 knots is drawn with rising times from
log-uniform gaps (its first knot at 0 or after it) and values up to 1e300; the grids come from
fixed sets.  The draws are derandomized, so every run checks the same examples.
A sweep sets each scalar parameter of the constructors and functions that take one to nan,
inf and -inf in turn, and every such call must raise ConfigurationError.  A second sweep does
the same for every count and order (the grid sizes, the polynomial orders and the quantum
number): a float, even 2.0, a bool, a string, nan, inf, -1 and a value below the minimum are
each a ConfigurationError, and a NumPy integer is as valid as a Python one.  The soliton is
evaluated, and every catalog state's default grid built, at a drawn hbar, and the delta bound
state reads 1/(pi hbar) at the origin there.  The transform layer (sampling, both transform
paths, the marginals, the mass, overlap and sup-norm identities, inversion, the purity check
and the continuity gap) runs on 5- to 9-node grids at a drawn hbar, grid half-width and
sample amplitude.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wignerflow as wf

from conftest import CATALOG

CONTRACT = settings(derandomize=True, max_examples=60, deadline=None, database=None)

PARAMS = [
    wf.OscillatorParams(-1.0),
    wf.OscillatorParams(2.0, wf.Constant(0.5)),
    wf.OscillatorParams(-0.25, wf.Cosine(0.3, 0.2, 1.0)),  # resonant: Omega = 2 sqrt(|gamma|)
    wf.OscillatorParams(0.0, wf.Tabulated([0.0, 1.0, 3.0], [0.0, 1.0, -0.5])),
]
GAMMAS = [-1.0, -0.25, 0.0, 2.0]
DRIVES = [wf.Constant(0.0), wf.Constant(0.4), wf.Cosine(0.1, 0.5, 2.0)]
COEFFS = [
    wf.flow_coefficients(wf.OscillatorParams(1.0), 0.0),
    wf.flow_coefficients(wf.OscillatorParams(-1.0, wf.Constant(1.0)), 30.0),  # entries ~ 1e25
    wf.flow_coefficients(wf.OscillatorParams(3.0, wf.Cosine(0.0, 1.0, 0.5)), 2.5),
]
_GRID = wf.Grid1D.symmetric(4.0, 9)
PS = wf.PhaseSpaceGrid(_GRID, _GRID)
FIELD = wf.propagate_field(wf.CoherentGaussian(0.5, -0.2).wigner, wf.OscillatorParams(0.0), 0.0, PS)


def positives(lowest=-300.0):
    """Log-uniform magnitudes from 10**lowest to 1e300 (the sweep below covers +-inf)."""
    return st.floats(lowest, 300.0).map(lambda exponent: 10.0**exponent)


def signed():
    """Log-uniform magnitudes of both signs from 1e-300 to 1e300."""
    return st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]), positives())


def magnitudes():
    return st.one_of(signed(), st.sampled_from([0.0, math.inf, -math.inf]))


def tables():
    """Tabulated drives of 2 to 12 knots: rising times from log-uniform gaps of 1e-3 to 1e3,
    the first knot at 0 or after it, and values of both signs up to 1e300, or 0."""
    def table(first, gaps, values):
        return wf.Tabulated(np.cumsum([first, *gaps]), values)

    def of_size(knots):
        gaps = st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0**e), min_size=knots - 1,
                        max_size=knots - 1)
        values = st.lists(st.one_of(signed(), st.just(0.0)), min_size=knots, max_size=knots)
        first = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
        return st.builds(table, first, gaps, values)

    return st.integers(2, 12).flatmap(of_size)


def curvatures():
    """None (keep the fixed parameters' own gamma) or a drawn gamma of either sign."""
    return st.one_of(st.none(), signed())


def _with_gamma(params, gamma):
    return params if gamma is None else dataclasses.replace(params, gamma=gamma)


def _leaves(value):
    """The numeric parts of a result: arrays and numbers inside tuples and dataclasses."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _leaves(v)
    elif value is not None and not isinstance(value, str):
        yield np.asarray(value)


def _finite_or_raises(call, may_raise=True):
    """call() under warnings-as-errors: its finite result, or None at a WignerflowError if
    allowed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except wf.WignerflowError:
            if may_raise:
                return None
            raise
    for leaf in _leaves(result):
        assert np.all(np.isfinite(leaf)), leaf
    return result


# one state of each class, and the Hermite function form of the oscillator level
STATES = ["box", "coherent", "delta_bound", "free_gaussian", "gauss_general", "harmonic_eigen",
          "hermite3", "soliton"]


@pytest.mark.parametrize("state_id", STATES)
@CONTRACT
@given(x=st.lists(magnitudes(), min_size=1, max_size=5),
       xi=st.lists(magnitudes(), min_size=1, max_size=5))
def test_catalog_evaluators_are_finite_at_every_point(state_id, x, xi):
    state = CATALOG[state_id]
    x_col, xi_row = np.array(x)[:, None], np.array(xi)[None, :]
    _finite_or_raises(lambda: state.psi(x_col), may_raise=False)
    _finite_or_raises(lambda: state.wigner(x_col, xi_row), may_raise=False)
    _finite_or_raises(lambda: state.wigner(x[0], xi[0]), may_raise=False)


@CONTRACT
@given(params=st.sampled_from(PARAMS), gamma=curvatures(), t=magnitudes(), x=magnitudes(),
       xi=magnitudes())
def test_flow_functions_are_finite_or_raise(params, gamma, t, x, xi):
    params = _with_gamma(params, gamma)
    _finite_or_raises(lambda: wf.drive_value(params.drive, t))
    _finite_or_raises(lambda: wf.flow_coefficients(params, t))
    _finite_or_raises(lambda: wf.drive_convolutions(params, t))
    _finite_or_raises(lambda: wf.classical_flow(params, x, xi, t))
    _finite_or_raises(lambda: wf.propagate_field(wf.Soliton(-1.0).wigner, params, t, PS))
    _finite_or_raises(lambda: wf.propagate_field(FIELD, params, t, PS))
    _finite_or_raises(lambda: wf.field_evaluator(FIELD)(x, xi))


@CONTRACT
@given(coeffs=st.sampled_from(COEFFS), x=magnitudes(), xi=magnitudes())
def test_flow_maps_are_finite_or_raise(coeffs, x, xi):
    _finite_or_raises(lambda: wf.backward_map(coeffs, x, xi))
    _finite_or_raises(lambda: wf.forward_map(coeffs, x, xi))


@CONTRACT
@given(params=st.sampled_from(PARAMS), gamma=curvatures(), hbar=positives(), a=magnitudes(),
       p0=magnitudes(), t=magnitudes(), x=magnitudes(), xi=magnitudes())
def test_gaussian_functions_are_finite_or_raise(params, gamma, hbar, a, p0, t, x, xi):
    def packet():
        return wf.GaussianPacket(a, p0, hbar)

    def oscillator():
        return dataclasses.replace(_with_gamma(params, gamma), hbar=hbar)

    _finite_or_raises(lambda: wf.packet_shape(packet(), oscillator(), t))
    _finite_or_raises(lambda: wf.density(packet(), oscillator(), x, t))
    _finite_or_raises(lambda: wf.wavefunction(packet(), oscillator(), x, t))
    _finite_or_raises(lambda: wf.wigner_evolved(packet(), oscillator(), x, xi, t))
    _finite_or_raises(lambda: wf.wigner_evolved_field(packet(), oscillator(), t, PS))
    _finite_or_raises(lambda: wf.expectation_position(packet(), oscillator(), t))


@CONTRACT
@given(drive=st.sampled_from(DRIVES), hbar=positives(), a=magnitudes(), p0=magnitudes(),
       t=magnitudes(), omega=magnitudes())
def test_tunneling_functions_are_finite_or_raise(drive, hbar, a, p0, t, omega):
    def scenario():
        return wf.TunnelScenario(wf.GaussianPacket(a, p0, hbar), omega, drive)

    _finite_or_raises(lambda: wf.survival_probability(scenario(), t))
    _finite_or_raises(lambda: wf.tunnel_report(scenario()))
    _finite_or_raises(lambda: wf.figure1_series(a, omega, hbar, [p0], [t], drive))
    _finite_or_raises(lambda: wf.asymptotic_time(omega))


@CONTRACT
@given(cosine=st.booleans(), lam=magnitudes(), b=magnitudes(), Omega=magnitudes(),
       gamma=st.one_of(st.sampled_from(GAMMAS), signed()), omega=magnitudes(), t=magnitudes())
def test_functions_of_a_drawn_drive_are_finite_or_raise(cosine, lam, b, Omega, gamma, omega, t):
    def drive():
        return wf.Cosine(lam, b, Omega) if cosine else wf.Constant(lam)

    def params():
        return wf.OscillatorParams(gamma, drive())

    def scenario():
        return wf.TunnelScenario(wf.GaussianPacket(-3.0, 2.0), omega, drive())

    _finite_or_raises(lambda: wf.drive_value(drive(), t))
    _finite_or_raises(lambda: wf.flow_coefficients(params(), t))
    _finite_or_raises(lambda: wf.drive_convolutions(params(), t))
    _finite_or_raises(lambda: wf.classical_flow(params(), 0.5, -0.3, t))
    _finite_or_raises(lambda: wf.packet_shape(wf.GaussianPacket(-3.0, 2.0), params(), t))
    _finite_or_raises(lambda: wf.survival_probability(scenario(), t))
    _finite_or_raises(lambda: wf.tunnel_report(scenario()))


@CONTRACT
@given(drive=tables(), gamma=st.one_of(st.sampled_from(GAMMAS), signed()), hbar=positives(),
       a=magnitudes(), p0=magnitudes(), omega=magnitudes(),
       t=st.one_of(positives(-3.0), magnitudes()), x=magnitudes(), xi=magnitudes())
def test_functions_of_a_drawn_table_are_finite_or_raise(drive, gamma, hbar, a, p0, omega, t, x,
                                                         xi):
    def params():
        return wf.OscillatorParams(gamma, drive, hbar)

    def packet():
        return wf.GaussianPacket(a, p0, hbar)

    def scenario():
        return wf.TunnelScenario(packet(), omega, drive)

    _finite_or_raises(lambda: wf.drive_value(drive, t))
    _finite_or_raises(lambda: wf.flow_coefficients(params(), t))
    _finite_or_raises(lambda: wf.flow_coefficients(params(), [0.0, t]))
    _finite_or_raises(lambda: wf.drive_convolutions(params(), t))
    _finite_or_raises(lambda: wf.classical_flow(params(), x, xi, t))
    _finite_or_raises(lambda: wf.propagate_field(FIELD, params(), t, PS))
    _finite_or_raises(lambda: wf.packet_shape(packet(), params(), t))
    _finite_or_raises(lambda: wf.density(packet(), params(), x, t))
    _finite_or_raises(lambda: wf.wavefunction(packet(), params(), x, t))
    _finite_or_raises(lambda: wf.wigner_evolved(packet(), params(), x, xi, t))
    _finite_or_raises(lambda: wf.expectation_position(packet(), params(), t))
    _finite_or_raises(lambda: wf.survival_probability(scenario(), t))
    _finite_or_raises(lambda: wf.tunnel_report(scenario()))
    _finite_or_raises(lambda: wf.figure1_series(a, omega, hbar, [p0], [t], drive))


@CONTRACT
@given(R=positives(), hbar=positives(), Xi=positives(0.0))
def test_box_l1_growth_is_finite_or_raises(R, hbar, Xi):
    _finite_or_raises(lambda: wf.box_l1_growth(R, hbar, Xi))


@CONTRACT
@given(gamma=positives(), hbar=positives(), x=magnitudes(), xi=magnitudes())
def test_delta_stationary_residual_is_finite_or_raises(gamma, hbar, x, xi):
    _finite_or_raises(lambda: wf.delta_stationary_residual(-gamma, hbar, (x, xi)))


_NATURAL = wf.natural_grid(wf.Grid1D.symmetric(9.0, 33), 1.0)
_NATURAL_FIELD = wf.wigner_transform(
    wf.sample_catalog_state(wf.CoherentGaussian(), _NATURAL.x_grid), _NATURAL)

# (owner, call taking keyword arguments, valid keyword arguments): the sweep replaces each
# float argument in turn by nan, inf and -inf
PARAMETER_SWEEP = [
    ("Box", wf.Box, dict(R=1.0, hbar=1.0)),
    ("GaussGeneral", wf.GaussGeneral,
     dict(a1=1.0, a2=0.1, b1=0.2, b2=-0.3, c1=0.4, c2=0.5, hbar=1.0)),
    ("CoherentGaussian", wf.CoherentGaussian, dict(a=0.1, p0=-0.2, hbar=1.0)),
    ("FreeEvolvedGaussian", wf.FreeEvolvedGaussian, dict(t=0.5, hbar=1.0)),
    ("DeltaBound", wf.DeltaBound, dict(gamma=-1.0, hbar=1.0)),
    ("Soliton", wf.Soliton, dict(nu=-1.0, hbar=1.0)),
    ("HarmonicEigen", lambda **kw: wf.HarmonicEigen(2, **kw), dict(omega=0.7, hbar=1.0)),
    ("harmonic_energy", lambda **kw: wf.harmonic_energy(1, **kw), dict(omega=0.7, hbar=1.0)),
    ("box_l1_growth", wf.box_l1_growth, dict(R=1.0, hbar=1.0, Xi=2.0)),
    ("Constant", wf.Constant, dict(lam=0.5)),
    ("Cosine", wf.Cosine, dict(lam=0.1, b=0.2, Omega=1.0)),
    ("OscillatorParams", wf.OscillatorParams, dict(gamma=-1.0, hbar=1.0)),
    ("liouville_residual",
     lambda t, dt, dx, dxi: wf.liouville_residual(
         wf.OscillatorParams(-1.0), wf.CoherentGaussian().wigner, t, PS, dt, dx, dxi),
     dict(t=0.5, dt=0.01, dx=0.01, dxi=0.01)),
    ("stationary_residual",
     lambda E, x, xi, dx, dxi: wf.stationary_residual(
         wf.HarmonicEigen(1, 1.0, 1.0), E, (x, xi), (dx, dxi)),
     dict(E=3.0, x=0.3, xi=0.2, dx=1e-3, dxi=1e-3)),
    ("delta_stationary_residual",
     lambda gamma, hbar, x, xi, fd_step: wf.delta_stationary_residual(
         gamma, hbar, (x, xi), fd_step),
     dict(gamma=-1.0, hbar=1.0, x=0.5, xi=0.1, fd_step=2e-3)),
    ("WaveSample", lambda hbar: wf.WaveSample(_GRID, np.ones(9), hbar), dict(hbar=1.0)),
    ("WignerField", lambda hbar: wf.WignerField(PS, FIELD.values, hbar), dict(hbar=1.0)),
    ("invert_wigner", lambda x_star: wf.invert_wigner(_NATURAL_FIELD, x_star), dict(x_star=0.5)),
    ("Grid1D", lambda x_min, step: wf.Grid1D(x_min, step, 9), dict(x_min=-1.0, step=0.25)),
    ("natural_xi_grid", lambda hbar: wf.natural_xi_grid(_GRID, hbar), dict(hbar=1.0)),
    ("asymptotic_time", wf.asymptotic_time, dict(omega=1.0)),
    ("TunnelScenario", lambda omega: wf.TunnelScenario(wf.GaussianPacket(-3.0, 2.0), omega),
     dict(omega=1.0)),
    ("figure1_series", lambda a, omega, hbar: wf.figure1_series(a, omega, hbar, [2.0], [1.0]),
     dict(a=-3.0, omega=1.0, hbar=1.0)),
]


def _breach(call, kwargs):
    """None if call(**kwargs) raises ConfigurationError with no warning, else what it did."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**kwargs)
        except wf.ConfigurationError:
            return None
        except Exception as exc:  # a warning turned error, or a raw exception
            return f"raised {type(exc).__name__}: {exc}"
    return f"returned a {type(result).__name__}"


def test_every_scalar_parameter_must_be_finite():
    breaches = []
    for owner, call, valid in PARAMETER_SWEEP:
        _finite_or_raises(lambda: call(**valid), may_raise=False)  # the base call is valid
        for name in valid:
            for bad in (math.nan, math.inf, -math.inf):
                found = _breach(call, {**valid, name: bad})
                if found is not None:
                    breaches.append(f"{owner}({name}={bad}) {found}")
    assert not breaches, f"{len(breaches)} breaches:\n" + "\n".join(breaches)


# (owner, call taking the count, a valid count, the largest invalid count below the minimum):
# the sweep sets each count to non-integers, a bool, a string, nan, inf, -1 and that value
COUNT_SWEEP = [
    ("Grid1D", lambda count: wf.Grid1D(-1.0, 0.25, count).nodes(), 9, 1),
    ("Grid1D.from_span", lambda count: wf.Grid1D.from_span(-1.0, 1.0, count).nodes(), 9, 1),
    ("Grid1D.symmetric", lambda count: wf.Grid1D.symmetric(1.0, count).nodes(), 9, 1),
    ("symmetric_xi_grid", lambda count: wf.symmetric_xi_grid(5.0, count).nodes(), 9, 1),
    ("natural_xi_grid", lambda count: wf.natural_xi_grid(_GRID, 1.0, count=count).nodes(), 19, 15),
    ("HarmonicEigen", lambda n: wf.HarmonicEigen(n, 0.7, 1.0).psi(0.3), 3, -1),
    ("Hermite", lambda n: wf.Hermite(n).wigner(0.3, -0.2), 3, -1),
    ("hermite_polynomial", lambda n: wf.hermite_polynomial(n, 0.3), 3, -1),
    ("laguerre_polynomial", lambda n: wf.laguerre_polynomial(n, 0.3), 3, -1),
    ("harmonic_energy", lambda n: wf.harmonic_energy(n, 0.7, 1.0), 3, -1),
]


def test_every_count_and_order_must_be_an_integer_in_range():
    breaches = []
    for owner, call, valid, below in COUNT_SWEEP:
        for good in (valid, np.int64(valid)):  # the base call is valid, also with a NumPy int
            _finite_or_raises(lambda: call(good), may_raise=False)
        for bad in (2.5, 2.0, True, "5", math.nan, math.inf, -1, below):
            found = _breach(lambda: call(bad), {})
            if found is not None:
                breaches.append(f"{owner}({bad!r}) {found}")
    assert not breaches, f"{len(breaches)} breaches:\n" + "\n".join(breaches)


def _wave(amplitude):
    """The coherent Gaussian on the 33-node grid of _NATURAL, times amplitude."""
    grid = _NATURAL.x_grid
    return wf.WaveSample(grid, amplitude * wf.CoherentGaussian().psi(grid.nodes()), 1.0)


_HUGE_FIELD = wf.wigner_transform(_wave(1e150), _NATURAL)  # peak ~1e299


_EDGE_GRID = wf.natural_grid(wf.Grid1D.symmetric(3.0, 5), 1.0)
_FULL_FIELD = wf.WignerField(_EDGE_GRID, np.full(_EDGE_GRID.shape, 1e308), 1.0)
_EDGE_WAVE = wf.WaveSample(_EDGE_GRID.x_grid, [0.0, 0.5, 1.0, 0.5, 0.0], 1.0)
_TINY_HBAR = wf.natural_grid(wf.Grid1D.symmetric(3.0, 9), 1e-300)
_TINY_HBAR_FIELD = wf.WignerField(_TINY_HBAR, np.zeros(_TINY_HBAR.shape), 1e-300)
_LOUD_WAVE = wf.WaveSample(_TINY_HBAR.x_grid, 1e150 * np.exp(-_TINY_HBAR.x_grid.nodes() ** 2),
                           1e-300)
_WIDE_GRID = wf.Grid1D.symmetric(1e100, 9)
# a unit Gaussian there has a transform of peak 8.0e248, whose momentum marginal (the x step
# is 2.5e99) leaves the double range
_WIDE_FIELD = wf.wigner_transform(
    wf.WaveSample(_WIDE_GRID, np.exp(-0.5 * _WIDE_GRID.nodes() ** 2), 1e-150),
    wf.natural_grid(_WIDE_GRID, 1e-150))


# finite arguments whose true result leaves the double range: each raises instead of returning
# inf or nan, or leaking an overflow warning
PAST_THE_RANGE = [
    ("harmonic_energy", lambda: wf.harmonic_energy(10**6, 1e308, 10.0)),
    ("harmonic_energy_level_past_the_floats", lambda: wf.harmonic_energy(10**400, 1.0, 1.0)),
    ("stationary_residual", lambda: wf.stationary_residual(
        wf.HarmonicEigen(3, 1.0, 1.0), 3.5, (1e200, 1e200), (1e-3, 1e-3))),
    ("hermite_polynomial", lambda: wf.hermite_polynomial(60, 1e200)),
    ("laguerre_polynomial", lambda: wf.laguerre_polynomial(60, 1e300)),
    ("norm_sq", lambda: _wave(1e160).norm_sq()),
    ("normalize_sample", lambda: wf.normalize_sample(_wave(1e160))),
    ("overlap_identity", lambda: wf.overlap_identity(_HUGE_FIELD, _HUGE_FIELD)),
    ("momentum_marginal", lambda: wf.momentum_marginal(_WIDE_FIELD)),
    ("position_marginal", lambda: wf.position_marginal(_FULL_FIELD)),
    ("total_mass", lambda: wf.total_mass(_FULL_FIELD)),
    ("sup_norm_bound_slack", lambda: wf.sup_norm_bound_slack(_FULL_FIELD)),
    ("purity_separability_check", lambda: wf.purity_separability_check(_FULL_FIELD)),
    ("invert_wigner", lambda: wf.invert_wigner(_FULL_FIELD)),
    ("continuity_gap_of_opposite_fields", lambda: wf.continuity_gap(
        _FULL_FIELD, wf.WignerField(_EDGE_GRID, -_FULL_FIELD.values, 1.0), _EDGE_WAVE, _EDGE_WAVE)),
    ("continuity_bound_at_tiny_hbar", lambda: wf.continuity_gap(
        _TINY_HBAR_FIELD, _TINY_HBAR_FIELD, _LOUD_WAVE, _LOUD_WAVE)),
]


@pytest.mark.parametrize("name, call", PAST_THE_RANGE, ids=[name for name, _ in PAST_THE_RANGE])
def test_a_result_past_the_double_range_raises(name, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wf.NumericalConsistencyError, match="exceeds the double range"):
            call()


def test_the_purity_ratio_is_scale_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = wf.purity_separability_check(_HUGE_FIELD)
    assert huge <= 1e-12
    assert huge == pytest.approx(wf.purity_separability_check(_NATURAL_FIELD), abs=1e-14)


@CONTRACT
@given(hbar=positives(), x=magnitudes(), xi=magnitudes())
def test_soliton_is_finite_at_a_drawn_hbar(hbar, x, xi):
    state = wf.Soliton(-1.0, hbar)
    _finite_or_raises(lambda: state.psi(x), may_raise=False)
    _finite_or_raises(lambda: state.wigner(x, xi), may_raise=False)


@CONTRACT
@given(hbar=positives(), x=magnitudes(), xi=magnitudes())
def test_delta_bound_is_finite_at_a_drawn_hbar(hbar, x, xi):
    state = wf.DeltaBound(-1.0, hbar)
    _finite_or_raises(lambda: state.psi(x), may_raise=False)
    _finite_or_raises(lambda: state.wigner(x, xi), may_raise=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        origin = state.wigner(0.0, 0.0)
    assert origin == pytest.approx(1.0 / (math.pi * hbar), rel=1e-14)  # 1/(pi hbar) is normal


@pytest.mark.parametrize("state_id", STATES)
@CONTRACT
@given(hbar=positives())
def test_default_grid_at_a_drawn_hbar_is_finite_or_raises(state_id, hbar):
    state = dataclasses.replace(CATALOG[state_id], hbar=hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = wf.default_grid(state)
        except wf.NumericalConsistencyError:
            return
    assert math.isfinite(grid.x_min) and 0.0 < grid.step and math.isfinite(grid.x_max)


def _tent(count, amplitude):
    """amplitude times a tent that is 0 at both ends, with a phase that turns node by node."""
    k = np.arange(count)
    c = (count - 1) / 2
    return amplitude * (1.0 - np.abs(k - c) / c) * np.exp(0.7j * k)


@CONTRACT
@given(hbar=positives(), half_width=positives(), amplitude=positives(), count=st.integers(5, 9))
@example(hbar=1e-150, half_width=1e100, amplitude=1.0, count=9)
@example(hbar=1.0, half_width=3.0, amplitude=1e300, count=5)
@example(hbar=1e-300, half_width=3.0, amplitude=1e150, count=9)
def test_transform_layer_is_finite_or_raises(hbar, half_width, amplitude, count):
    grid = _finite_or_raises(lambda: wf.Grid1D.symmetric(half_width, count))
    ps = _finite_or_raises(lambda: wf.natural_grid(grid, hbar))
    wave = _finite_or_raises(lambda: wf.sample_state(lambda x: _tent(count, amplitude), grid, hbar))
    if ps is None or wave is None:
        return
    _finite_or_raises(wave.norm_sq)
    direct = _finite_or_raises(lambda: wf.PhaseSpaceGrid(grid, wf.symmetric_xi_grid(half_width, 5)))
    if direct is not None:
        _finite_or_raises(lambda: wf.wigner_transform(wave, direct))
    fields = [_finite_or_raises(lambda: wf.wigner_transform(wave, ps)),
              wf.WignerField(ps, np.full(ps.shape, amplitude), hbar)]
    for field in filter(None, fields):
        negated = wf.WignerField(ps, -field.values, hbar)
        for call in (wf.position_marginal, wf.momentum_marginal, wf.total_mass,
                     wf.sup_norm_bound_slack, wf.purity_separability_check, wf.invert_wigner,
                     lambda f: wf.invert_wigner(f, 0.5 * half_width, with_info=True),
                     lambda f: wf.overlap_identity(f, negated),
                     lambda f: wf.continuity_gap(f, f, wave, wave),
                     lambda f: wf.continuity_gap(f, negated, wave, wave)):
            _finite_or_raises(lambda: call(field))


@pytest.mark.parametrize("x_star", [1e308, -1e308])
def test_an_x_star_whose_node_index_leaves_the_floats_is_off_the_grid(x_star):
    grid = wf.natural_grid(wf.Grid1D.symmetric(1.0, 5), 1.0)  # x step 0.5: 1e308 / 0.5 is inf
    field = wf.WignerField(grid, np.ones(grid.shape), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wf.ConfigurationError, match="lies outside the grid"):
            wf.invert_wigner(field, x_star=x_star)


def test_one_time_functions_reject_a_time_of_several_entries():
    # an x grid of 7 nodes and an xi grid of 9: a time array as long as either would
    # broadcast against that axis of the mesh and mix times across it
    params = wf.OscillatorParams(-0.6, wf.Cosine(0.2, 0.3, 1.1))
    packet = wf.GaussianPacket(-0.5, 0.4)
    ps = wf.PhaseSpaceGrid(wf.Grid1D.symmetric(4.0, 7), wf.Grid1D.symmetric(4.0, 9))
    calls = [
        lambda t: wf.propagate_field(packet.wigner, params, t, ps).values,
        lambda t: wf.wigner_evolved_field(packet, params, t, ps).values,
        lambda t: wf.liouville_residual(params, packet.wigner, t, ps, 0.01, 0.1, 0.1),
    ]
    for call in calls:
        for t in (np.array([0.3, 0.6]), np.linspace(0.1, 0.9, 9), np.linspace(0.1, 0.9, 7)):
            with pytest.raises(wf.ConfigurationError, match=rf"one time, got shape \({t.size},\)$"):
                call(t)
        # a time of one entry is the float it holds
        at_once, at_float = call(np.array([0.3])), call(0.3)
        assert np.shape(at_once) == np.shape(at_float)
        np.testing.assert_array_equal(np.asarray(at_once).view(np.uint64),
                                      np.asarray(at_float).view(np.uint64))

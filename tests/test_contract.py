"""The error contract at extreme inputs: every public evaluator returns a finite result or
raises a WignerflowError, and never lets a warning or another exception escape.

Hypothesis draws the query arguments (points x and xi, times t, packet centres a and p0,
and the barrier omega of the tunneling functions) and the constant and cosine drive
parameters (lam, b, Omega) as log-uniform magnitudes of both signs from 1e-300 to 1e300,
plus 0 and +-inf.  The curvature gamma, the tabulated drive, hbar and the grids come from
fixed sets.  The draws are derandomized, so every run checks the same examples.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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


def magnitudes():
    log_uniform = st.builds(
        lambda sign, exponent: sign * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(-300.0, 300.0),
    )
    return st.one_of(log_uniform, st.sampled_from([0.0, math.inf, -math.inf]))


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
    """call() under warnings-as-errors: a finite result, or a WignerflowError if allowed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except wf.WignerflowError:
            if may_raise:
                return
            raise
    for leaf in _leaves(result):
        assert np.all(np.isfinite(leaf)), leaf


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
@given(params=st.sampled_from(PARAMS), t=magnitudes(), x=magnitudes(), xi=magnitudes())
def test_flow_functions_are_finite_or_raise(params, t, x, xi):
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
@given(params=st.sampled_from(PARAMS), a=magnitudes(), p0=magnitudes(), t=magnitudes(),
       x=magnitudes(), xi=magnitudes())
def test_gaussian_functions_are_finite_or_raise(params, a, p0, t, x, xi):
    def packet():
        return wf.GaussianPacket(a, p0, params.hbar)

    _finite_or_raises(lambda: wf.packet_shape(packet(), params, t))
    _finite_or_raises(lambda: wf.density(packet(), params, x, t))
    _finite_or_raises(lambda: wf.wavefunction(packet(), params, x, t))
    _finite_or_raises(lambda: wf.wigner_evolved(packet(), params, x, xi, t))
    _finite_or_raises(lambda: wf.wigner_evolved_field(packet(), params, t, PS))
    _finite_or_raises(lambda: wf.expectation_position(packet(), params, t))


@CONTRACT
@given(drive=st.sampled_from(DRIVES), a=magnitudes(), p0=magnitudes(), t=magnitudes(),
       omega=magnitudes())
def test_tunneling_functions_are_finite_or_raise(drive, a, p0, t, omega):
    def scenario():
        return wf.TunnelScenario(wf.GaussianPacket(a, p0), omega, drive)

    _finite_or_raises(lambda: wf.survival_probability(scenario(), t))
    _finite_or_raises(lambda: wf.tunnel_report(scenario()))
    _finite_or_raises(lambda: wf.figure1_series(a, omega, 1.0, [p0], [t], drive))
    _finite_or_raises(lambda: wf.asymptotic_time(omega))


@CONTRACT
@given(cosine=st.booleans(), lam=magnitudes(), b=magnitudes(), Omega=magnitudes(),
       gamma=st.sampled_from(GAMMAS), omega=magnitudes(), t=magnitudes())
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

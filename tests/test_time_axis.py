"""Time as an array axis: an array of times gives the per-time results bit for bit,
and every public time function rejects a negative or non-finite time.  figure1_series
adds the packets' p0 as a leading axis with the per-p0 results bit for bit, and the
transport kernel, with the propagate command on it, a leading time axis with the per-time
propagate_field values and row sums bit for bit."""

import json
import math

import numpy as np
import pytest

import wignerflow as wf
from wignerflow import cli, flow, gaussian, transform, tunneling
from wignerflow.flow import _scaled_flow

# 0, a tiny time, table knots (0.8, 1.1, 2.6) and a grid out beyond both tables; enough
# points that a scalar path rounding differently from NumPy in a few per cent would show
TIMES = np.concatenate(([0.0, 1e-9, 0.8, 1.1, 2.6], np.linspace(0.01, 9.0, 145)))
GAMMAS = (0.8, -0.6)


def drives(gamma):
    return {
        "constant": wf.Constant(0.4),
        "cosine": wf.Cosine(0.2, 0.5, 3.7),  # (3.7/2)^2 is far from |gamma|: quotient form
        "resonant": wf.Cosine(0.2, 0.5, 2.0 * math.sqrt(abs(gamma))),
        "tabulated": wf.Tabulated(np.array([0.0, 0.7, 1.5, 2.0]), np.array([0.2, -0.4, 0.9, 0.1])),
        "late_table": wf.Tabulated(np.array([0.8, 1.1, 2.6]), np.array([0.5, -0.7, 0.3])),
    }


CASES = [(gamma, name) for gamma in GAMMAS for name in drives(gamma)]


def bits(values):
    """The IEEE bit patterns of an array of doubles (tells 0.0 from -0.0 and keeps nan)."""
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_same_bits(at_once, per_point):
    np.testing.assert_array_equal(bits(np.broadcast_to(at_once, TIMES.shape)), bits(per_point))


def flat(flow_values):
    L, coeffs, conv = flow_values
    return (L, *coeffs, *conv)


@pytest.mark.parametrize("gamma, name", CASES)
def test_scaled_flow_on_an_array_equals_per_time_calls(gamma, name):
    params = wf.OscillatorParams(gamma, drives(gamma)[name])
    at_once = flat(_scaled_flow(params, TIMES))
    per_point = [flat(_scaled_flow(params, float(t))) for t in TIMES]
    for k, values in enumerate(at_once):
        assert_same_bits(values, [p[k] for p in per_point])
    # any shape: a 2-D time array gives the same values in its own shape
    grid = flat(_scaled_flow(params, TIMES.reshape(10, 15)))
    for values, flat_values in zip(grid, at_once):
        if np.ndim(values):
            np.testing.assert_array_equal(bits(values).ravel(), bits(flat_values))


# the flat potential, both signs of its zero: the flow's scale is e^0 there
E0_CASES = [(gamma, name) for gamma in (0.0, -0.0) for name in drives(gamma)]
# points of a density or wavefunction, the infinite ones included
XS = np.array([-np.inf, -3.0, -0.5, 0.0, 0.7, 2.5, np.inf])


@pytest.mark.parametrize("gamma, name", CASES + E0_CASES)
def test_packet_shape_on_an_array_equals_per_time_calls(gamma, name):
    packet = wf.GaussianPacket(-0.7, 0.4, 0.9)
    params = wf.OscillatorParams(gamma, drives(gamma)[name], packet.hbar)
    at_once = wf.packet_shape(packet, params, TIMES)
    per_point = [wf.packet_shape(packet, params, float(t)) for t in TIMES]
    for field in ("A", "Bc0", "Bc1", "Cc0", "Cc1", "Cc2", "v"):
        assert_same_bits(getattr(at_once, field), [getattr(s, field) for s in per_point])
    assert_same_bits(
        wf.expectation_position(packet, params, TIMES),
        [wf.expectation_position(packet, params, float(t)) for t in TIMES],
    )
    # density and wavefunction on a (T, 1) time axis against x: row k is time k's call
    for observable in (wf.density, wf.wavefunction):
        rows = observable(packet, params, XS, TIMES[:, None])
        assert rows.shape == (TIMES.size, XS.size)
        per_time = [observable(packet, params, XS, float(t)) for t in TIMES]
        np.testing.assert_array_equal(rows.view(np.uint64), np.array(per_time).view(np.uint64))


@pytest.mark.parametrize("name", list(drives(GAMMAS[1])))
def test_survival_on_an_array_equals_per_time_calls(name):
    omega = math.sqrt(-GAMMAS[1])
    scenario = wf.TunnelScenario(wf.GaussianPacket(-5.0, 4.2, 0.9), omega, drives(GAMMAS[1])[name])
    at_once = wf.survival_probability(scenario, TIMES)
    assert_same_bits(at_once, [wf.survival_probability(scenario, float(t)) for t in TIMES])


def test_figure1_rows_equal_per_time_survival():
    drive = wf.Cosine(0.1, 0.3, 1.4)
    series = wf.figure1_series(-5.0, 1.0, 1.0, [4.0, 5.0, 6.0], TIMES, drive)
    assert series.shape == (3, TIMES.size)
    for p0, row in zip((4.0, 5.0, 6.0), series):
        scenario = wf.TunnelScenario(wf.GaussianPacket(-5.0, p0, 1.0), 1.0, drive)
        assert_same_bits(row, [wf.survival_probability(scenario, float(t)) for t in TIMES])
    assert wf.figure1_series(-5.0, 1.0, 1.0, [], TIMES).shape == (0, TIMES.size)
    assert wf.figure1_series(-5.0, 1.0, 1.0, [], TIMES.reshape(10, 15)).shape == (0, 10, 15)


# Packets of the paper's Figure 1: a = -5 against the barrier -omega^2 x^2, from below to
# above the critical momentum omega |a|, plus p0 = 0 and a negative p0
P0S = (0.0, -1.3, 3.1, 3.87298, 4.6)


@pytest.mark.parametrize("name", list(drives(GAMMAS[1])))
def test_figure1_series_equals_per_p0_survival_rows(name):
    omega, drive = math.sqrt(-GAMMAS[1]), drives(GAMMAS[1])[name]
    series = wf.figure1_series(-5.0, omega, 0.9, list(P0S), TIMES, drive)
    assert series.shape == (len(P0S), TIMES.size)
    for p0, row in zip(P0S, series):
        scenario = wf.TunnelScenario(wf.GaussianPacket(-5.0, p0, 0.9), omega, drive)
        assert_same_bits(row, wf.survival_probability(scenario, TIMES))
    # a time grid of any shape: p0 leads, the values are the 1-D ones
    grid = wf.figure1_series(-5.0, omega, 0.9, list(P0S), TIMES.reshape(10, 15), drive)
    assert grid.shape == (len(P0S), 10, 15)
    np.testing.assert_array_equal(bits(grid).reshape(series.shape), bits(series))


def test_figure1_series_makes_one_flow_call_and_one_erfc_call(monkeypatch):
    calls = {"flow": [], "erfc": []}
    scaled_flow, erfc = gaussian._scaled_flow, tunneling.erfc

    def counted_flow(params, t):
        calls["flow"].append(np.shape(t))
        return scaled_flow(params, t)

    def counted_erfc(x):
        calls["erfc"].append(np.shape(x))
        return erfc(x)

    monkeypatch.setattr(gaussian, "_scaled_flow", counted_flow)
    monkeypatch.setattr(tunneling, "erfc", counted_erfc)
    wf.figure1_series(-5.0, 1.0, 1.0, [4.0, 5.0, 6.0], TIMES, wf.Cosine(0.1, 0.3, 1.4))
    assert calls == {"flow": [TIMES.shape], "erfc": [(3, *TIMES.shape)]}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_figure1_series_rejects_a_non_finite_p0(bad):
    with pytest.raises(wf.ConfigurationError, match="finite"):
        wf.figure1_series(-5.0, 1.0, 1.0, [4.0, bad], TIMES)


def packet_state():
    return wf.CoherentGaussian(-1.0, 0.5, 1.0)


BAD_TIMES = [-0.1, math.nan, math.inf, -math.inf, np.array([0.5, math.nan, 1.0]),
             np.array([[0.5, 1.0], [-1.0, 2.0]])]


@pytest.mark.parametrize("t", BAD_TIMES)
def test_every_public_time_function_rejects_a_bad_time(t):
    params = wf.OscillatorParams(-1.0, wf.Cosine(0.2, 0.6, 1.7))
    packet = wf.GaussianPacket(-5.0, 4.0)
    scenario = wf.TunnelScenario(packet, 1.0, params.drive)
    ps = wf.PhaseSpaceGrid(wf.Grid1D.symmetric(4.0, 5), wf.Grid1D.symmetric(4.0, 5))
    calls = [
        lambda: wf.flow_coefficients(params, t),
        lambda: wf.drive_convolutions(params, t),
        lambda: wf.classical_flow(params, 0.1, 0.2, t),
        lambda: wf.propagate_field(packet_state().wigner, params, t, ps),
        lambda: wf.packet_shape(packet, params, t),
        lambda: wf.density(packet, params, 0.3, t),
        lambda: wf.wavefunction(packet, params, 0.3, t),
        lambda: wf.wigner_evolved(packet, params, 0.3, 0.1, t),
        lambda: wf.expectation_position(packet, params, t),
        lambda: wf.survival_probability(scenario, t),
        lambda: wf.figure1_series(-5.0, 1.0, 1.0, [4.0], np.atleast_1d(t)),
    ]
    for call in calls:
        with pytest.raises(wf.ConfigurationError, match="finite and non-negative"):
            call()


def test_transport_residual_needs_t_minus_dt_non_negative():
    ps = wf.PhaseSpaceGrid(wf.Grid1D.symmetric(4.0, 5), wf.Grid1D.symmetric(4.0, 5))
    with pytest.raises(wf.ConfigurationError, match="finite and non-negative"):
        wf.liouville_residual(wf.OscillatorParams(1.0), packet_state().wigner, 0.01, ps,
                              0.02, 0.1, 0.1)


def test_a_time_whose_square_overflows_is_a_library_error():
    # t^2 leaves the double range beyond about 1.3e154: a typed error, no nan and no warning
    scenario = wf.TunnelScenario(wf.GaussianPacket(-5.0, 4.0), 1.0)
    cosine = wf.OscillatorParams(1.0, wf.Cosine(0.3, 0.2, 0.7))
    for call in (lambda t: wf.survival_probability(scenario, t),
                 lambda t: wf.flow_coefficients(cosine, t)):
        with pytest.raises(wf.NumericalConsistencyError):
            call(np.array([1.0, 1e160]))


TRANSPORT_PARAMS = wf.OscillatorParams(-0.6, wf.Cosine(0.2, 0.3, 1.1))


@pytest.mark.parametrize("shares", [1, 2])
@pytest.mark.parametrize("times", [[0.7], [0.0, 0.7, 0.7, 2.3]])  # t = 0 and a repeated time
@pytest.mark.parametrize("gridded", [False, True])
def test_transport_on_a_time_axis_equals_per_time_fields(monkeypatch, shares, times, gridded):
    grid = wf.Grid1D.symmetric(10.0, 41)
    ps = wf.natural_grid(grid, 1.0)
    state = packet_state()
    field = wf.wigner_transform(wf.sample_catalog_state(state, grid), ps)
    initial = field if gridded else state.wigner
    times = np.array(times)
    fields = [wf.propagate_field(initial, TRANSPORT_PARAMS, float(t), ps) for t in times]
    # one share or two, and room for 5 rows a chunk: every time is cut into 9 chunks
    monkeypatch.setattr(transform, "_SHARES", shares)
    monkeypatch.setattr(transform, "_CHUNK_BYTES", 16 * np.getbufsize() + 5 * 128 * ps.shape[1])
    assert len(transform._row_chunks(ps.shape[0], 128 * ps.shape[1])) == 9
    coeffs = wf.flow_coefficients(TRANSPORT_PARAMS, times)
    values, row_sums = flow._evaluate_transported(initial, coeffs, ps.x_grid.nodes(),
                                                  ps.xi_grid.nodes())
    assert values.shape == (times.size, *ps.shape) and row_sums.shape == (times.size, ps.shape[0])
    np.testing.assert_array_equal(bits(values), bits([f.values for f in fields]))
    np.testing.assert_array_equal(bits(row_sums), bits([f._row_sums for f in fields]))


def test_propagate_command_makes_one_flow_call_and_keeps_its_bits(monkeypatch):
    config = cli.parse_config(json.dumps({
        "command": "propagate", "state": {"kind": "coherent", "a": 0.2, "p0": -0.3},
        "gamma": -0.6, "drive": {"kind": "cosine", "lambda": 0.2, "b": 0.3, "Omega": 1.1},
        "times": [0.0, 0.7, 0.7, 2.3], "grid": {"half_width": 6.0, "count": 33},
        "xi": {"xi_max": 6.0, "count": 35},
    }))
    p = config.params
    params = wf.OscillatorParams(p["gamma"], wf.Cosine(0.2, 0.3, 1.1))
    ps = wf.PhaseSpaceGrid(wf.Grid1D.from_span(**p["grid"]), wf.symmetric_xi_grid(**p["xi"]))
    state = wf.CoherentGaussian(0.2, -0.3)
    reference = [wf.propagate_field(state.wigner, params, t, ps).values for t in p["times"]]

    calls = {"flow": [], "transport": [], "fields": 0, "stacks": 0}
    scaled_flow, transported, stack = flow._scaled_flow, flow._evaluate_transported, np.stack

    def counted_flow(params, t):
        calls["flow"].append(np.shape(t))
        return scaled_flow(params, t)

    def counted_transport(initial, coeffs, x, xi):
        calls["transport"].append(np.shape(coeffs.t))
        return transported(initial, coeffs, x, xi)

    def no_field(self, row_sums):
        calls["fields"] += 1

    def counted_stack(*args, **kwargs):
        calls["stacks"] += 1
        return stack(*args, **kwargs)

    monkeypatch.setattr(flow, "_scaled_flow", counted_flow)
    monkeypatch.setattr(flow, "_evaluate_transported", counted_transport)
    monkeypatch.setattr(transform.WignerField, "__post_init__", no_field)
    monkeypatch.setattr(np, "stack", counted_stack)
    table, _ = cli.compute(config)
    assert calls == {"flow": [(4,)], "transport": [(4,)], "fields": 0, "stacks": 0}
    np.testing.assert_array_equal(bits(table.flat(table.columns[3])), bits(reference).ravel())
    np.testing.assert_array_equal(table.flat(table.columns[0]), np.repeat(p["times"], 33 * 35))

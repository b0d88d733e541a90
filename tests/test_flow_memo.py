"""The one-entry memo of flow._scaled_flow: the observables of one packet at one time share
a single flow evaluation, and a memoised flow is bit for bit the flow computed afresh."""

from pathlib import Path

import numpy as np
import pytest

import wignerflow as wf
from wignerflow import cli, flow

DRIVES = [
    wf.Constant(0.3),
    wf.Cosine(0.1, 0.4, 1.3),
    wf.Tabulated([0.0, 0.5, 2.0], [0.2, -0.3, 0.1]),
]
TIMES = [0.7, np.linspace(0.0, 3.0, 5), np.linspace(0.0, 3.0, 6).reshape(2, 3)]


@pytest.fixture
def compute_calls(monkeypatch):
    """The times each _compute_flow call was made at, with the memo emptied first."""
    calls = []
    compute = flow._compute_flow

    def counted(params, t):
        calls.append(np.array(t))
        return compute(params, t)

    monkeypatch.setattr(flow, "_last_flow", None)
    monkeypatch.setattr(flow, "_compute_flow", counted)
    return calls


def _arrays(result):
    L, coeffs, conv = result
    return [np.asarray(v) for v in (L, *coeffs, *conv)]


def _same_bits(u, v):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(_arrays(u), _arrays(v), strict=True))


def test_packet_observables_at_one_time_share_one_flow(compute_calls):
    packet = wf.GaussianPacket(-0.4, 0.6)
    params = wf.OscillatorParams(0.25, wf.Cosine(0.1, 0.3, 1.0))  # resonant drive
    times = np.linspace(0.1, 4.0, 7)
    for t in times:
        shape = wf.packet_shape(packet, params, float(t))
        v = wf.expectation_position(packet, params, float(t))
        wf.density(packet, params, v + np.linspace(-1.0, 1.0, 5) * np.sqrt(shape.A), float(t))
    assert [float(t) for t in compute_calls] == list(times)


@pytest.mark.parametrize("drive", DRIVES, ids=["constant", "cosine", "tabulated"])
@pytest.mark.parametrize("gamma", [-1.5, 0.0, 2.0])
@pytest.mark.parametrize("t", TIMES, ids=["scalar", "1d", "2d"])
def test_a_hit_is_the_fresh_flow_bit_for_bit(compute_calls, drive, gamma, t):
    params = wf.OscillatorParams(gamma, drive)
    miss = flow._scaled_flow(params, t)
    hit = flow._scaled_flow(params, t)
    assert hit is miss and len(compute_calls) == 1
    assert _same_bits(hit, flow._compute_flow(params, np.asarray(t, dtype=float)))
    coeffs = wf.flow_coefficients(params, t)
    flow._last_flow = None
    fresh = wf.flow_coefficients(params, t)
    for name in ("a1", "a2", "a3", "b1", "b2", "b3"):
        hit_bits, fresh_bits = (np.asarray(getattr(c, name)).tobytes() for c in (coeffs, fresh))
        assert hit_bits == fresh_bits


def test_equal_but_distinct_params_keep_their_own_bits(compute_calls):
    plus, minus = wf.OscillatorParams(0.0), wf.OscillatorParams(-0.0)
    assert plus == minus
    b1_plus = wf.flow_coefficients(plus, 1.0).b1
    b1_minus = wf.flow_coefficients(minus, 1.0).b1
    assert len(compute_calls) == 2
    assert b1_plus == b1_minus == 0.0
    assert np.signbit(b1_plus) != np.signbit(b1_minus)
    flow._last_flow = None
    assert np.signbit(wf.flow_coefficients(minus, 1.0).b1) == np.signbit(b1_minus)


def test_writing_the_callers_times_gives_a_fresh_flow(compute_calls):
    params = wf.OscillatorParams(-0.5, wf.Constant(0.2))
    t = np.array([0.5, 1.0, 1.5])
    before = wf.flow_coefficients(params, t).a1.copy()
    t[1] = 2.5
    after = wf.flow_coefficients(params, t).a1
    assert len(compute_calls) == 2
    assert after[1] != before[1]
    assert after.tobytes() == wf.flow_coefficients(params, np.array([0.5, 2.5, 1.5])).a1.tobytes()


@pytest.mark.parametrize("drive", DRIVES, ids=["constant", "cosine", "tabulated"])
@pytest.mark.parametrize("gamma", [-1.5, 2.0])
def test_a_stored_flow_is_read_only_and_apart_from_the_callers_times(drive, gamma):
    t = np.linspace(0.0, 2.0, 4)
    arrays = [a for a in _arrays(flow._scaled_flow(wf.OscillatorParams(gamma, drive), t)) if a.ndim]
    assert arrays
    for a in arrays:
        assert not np.shares_memory(a, t)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_tabulated_drive_ignores_later_writes_to_its_source_arrays(compute_calls):
    times, values = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, -0.5])
    params = wf.OscillatorParams(0.5, wf.Tabulated(times, values))
    first = wf.drive_convolutions(params, 1.5)
    times[1], values[1] = 0.2, 7.0
    assert params.drive.times.tolist() == [0.0, 1.0, 2.0]
    assert params.drive.values.tolist() == [0.0, 1.0, -0.5]
    with pytest.raises(ValueError, match="read-only"):
        params.drive.values[0] = 1.0
    flow._last_flow = None
    assert wf.drive_convolutions(params, 1.5) == first


def test_the_gaussian_command_evaluates_its_flow_once(compute_calls):
    # packet_shape and density read one (T, 1) time axis, so the density hits the memo
    config = cli.load_config(Path(__file__).parent / "data" / "cli" / "gaussian.json")
    cli.compute(config)
    assert [t.shape for t in compute_calls] == [(3, 1)]

"""Closed-form dynamics of the minimum-uncertainty Gaussian packet.

The packet is the coherent state ``catalog.CoherentGaussian`` and, like every
initial field, it evolves by transport: W(x, xi, t) = W0(X, Xi) at the backward
image (X, Xi) of (x, xi).  Because W0 is Gaussian, so are the density and the
wavefunction (up to a global phase, fixed to zero here at every time); they are
explicit in the flow through the density centre v and width A.  For gamma < 0
these grow like e^{2 w t} and e^{4 w t} (w = sqrt(-gamma)), so the observables
read them divided by the flow's scale: the density and |psi| stay finite out to
2 w t ~ 745 and underflow to 0 beyond, while packet_shape, which unscales every
field, raises NumericalConsistencyError from 4 w t ~ 709 on, and so does
wavefunction where its phase, ~ x^2, leaves the double range while |psi| is not 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import CoherentGaussian
from .errors import (
    ConfigurationError, NumericalConsistencyError, all_at_least, all_finite, reject_nan
)
from .flow import (
    OscillatorParams,
    _in_range,
    _is_e0,
    _scaled_flow,
    _unscale,
    backward_map,
    propagate_field,
)
# looked up in this module by name by the benchmark's tracer (perfbench/tracer.py)
from .flow import drive_convolutions, flow_coefficients  # noqa: F401
from .grids import PhaseSpaceGrid
from .transform import WignerField

# the initial state, with mean position a, mean momentum p0 and width hbar/2
GaussianPacket = CoherentGaussian
_SPREAD_MIN = np.pi * np.finfo(float).tiny  # the least pi hbar A with hbar A a normal double


@dataclass(frozen=True)
class PacketShape:
    """Quadratic-exponent data of the evolved packet at time t (each field has t's shape).

    The field is exp(-[A xi^2 + B(x) xi + C(x)]/hbar)/(pi hbar) with
    B(x) = Bc1 x + Bc0 and C(x) = Cc2 x^2 + Cc1 x + Cc0; v is the density
    centre.  4*Cc2*A - Bc1^2 = 4 by unit determinant of the flow.
    """

    A: float
    Bc0: float
    Bc1: float
    Cc0: float
    Cc1: float
    Cc2: float
    v: float
    t: float


def _packet_flow(hbar: float, params: OscillatorParams, t):
    """_scaled_flow(params, t) for packets of Planck constant hbar."""
    if abs(params.hbar - hbar) > 1e-12 * hbar:
        raise ConfigurationError("packet and oscillator must share hbar")
    return _scaled_flow(params, t)


def _centre_and_width(a, p0, flow) -> tuple:
    """(v, A) of the packets launched from (a, p0), divided by e^L and e^{2L}: v broadcasts
    a and p0 against the flow's times, A depends on the times alone.  Callers evaluate it
    with overflow and invalid operations ignored, so a value past the double range reads
    inf or nan."""
    _, (_, a2, _, _, b2, _), (conv_q, _) = flow
    # v = -b2*da + a2*db restructured so the e^{4wt}-scale parts enter as the
    # single-scale convolution conv_q = a2 b3 - b2 a3 (no cancellation).
    return a * b2 - p0 * a2 + conv_q, a2 * a2 + b2 * b2


def _check_spread(spread, v=0.0) -> None:
    """NumericalConsistencyError where the centre v or the spread pi hbar A is not a normal
    double: past the range the height would read 0, below it the profile a step or nan."""
    if not (all_at_least(spread, _SPREAD_MIN) and all_finite(v)):
        raise NumericalConsistencyError("the packet centre or width exceeds the double range")


def _offset(x, L, v):
    """x e^{-L} - v', the scaled distance from the centre, with invalid operations ignored by
    the caller; an infinite x stays infinite where e^{-L} underflows to 0 (inf * 0 would be
    nan), every finite x keeps its bits.  ConfigurationError at a nan x."""
    x = np.asarray(x, dtype=float)
    reject_nan("packet", x)
    if _is_e0(L):
        return x - v
    return np.where(np.isinf(x), x, x * np.exp(-L)) - v


@np.errstate(over="ignore", invalid="ignore")  # a far packet centre gives a non-finite field
def _scaled_shape(packet: GaussianPacket, params: OscillatorParams, t) -> tuple[PacketShape, float]:
    """(shape, L): PacketShape with A, B, C divided by e^{2L} and v by e^L, L the flow's
    log-scale (0 unless gamma < 0), so v/sqrt(A) stays finite where the fields overflow."""
    flow = _packet_flow(packet.hbar, params, t)
    L, (a1, a2, a3, b1, b2, b3), _ = flow
    v, A = _centre_and_width(packet.a, packet.p0, flow)
    if _is_e0(L):
        da, db = a3 - packet.a, b3 - packet.p0
    else:
        decay = np.exp(-L)
        da, db = a3 - packet.a * decay, b3 - packet.p0 * decay
    return PacketShape(
        A=A,
        Bc0=2.0 * (a2 * da + b2 * db),
        Bc1=2.0 * (a2 * a1 + b2 * b1),
        Cc0=da * da + db * db,
        Cc1=2.0 * (a1 * da + b1 * db),
        Cc2=a1 * a1 + b1 * b1,
        v=v,
        t=t,
    ), L


def packet_shape(packet: GaussianPacket, params: OscillatorParams, t) -> PacketShape:
    """Shape at a float or an array of times; NumericalConsistencyError past the double range."""
    s, L = _scaled_shape(packet, params, t)
    fields = (s.A, s.Bc0, s.Bc1, s.Cc0, s.Cc1, s.Cc2)
    if _is_e0(L):  # e^0 keeps every bit: s, whose fields no memo holds, is the shape
        _in_range("the packet's quadratic terms", L, fields)
        _in_range("the packet centre", L, s.v)
        return s
    quadratic = _unscale("the packet's quadratic terms", 2.0 * L, *fields)
    return PacketShape(*quadratic, *_unscale("the packet centre", L, s.v), t)


def density(packet: GaussianPacket, params: OscillatorParams, x, t):
    """|psi(x, t)|^2 = exp(-(x - v)^2/(hbar A)) / sqrt(pi hbar A); x and t broadcast.

    Read from the scaled v' = v e^{-L}, A' = A e^{-2L} as
    e^{-L} exp(-(x e^{-L} - v')^2/(hbar A')) / sqrt(pi hbar A').
    """
    flow = _packet_flow(packet.hbar, params, t)
    L, h = flow[0], packet.hbar
    # v and hbar A are checked; a far-off point's square is inf, its value 0
    with np.errstate(over="ignore", invalid="ignore"):
        v, A = _centre_and_width(packet.a, packet.p0, flow)
        spread = np.pi * h * A
        _check_spread(spread, v)
        profile = np.exp(-(_offset(x, L, v) ** 2) / (h * A))
        if not _is_e0(L):
            profile = profile * np.exp(-L)
        return profile / np.sqrt(spread)


def wavefunction(packet: GaussianPacket, params: OscillatorParams, x, t: float):
    """psi(x, t) with the (undetermined) global phase fixed to zero.

    The x-dependent phase is -B(x/2) x / (2 hbar A), a ratio of fields that share the
    flow's scale; the modulus is read like density's.  For gamma < 0 the phase grows
    like e^{4 w t} radians near the packet: resolved to 1e-2 up to w t ~ 9, its rounding
    error reaches a radian from w t ~ 10 on, and where it leaves the double range (near
    the packet from 4 w t ~ 709) this raises NumericalConsistencyError; where |psi|
    underflows to 0 (far from the packet) psi is 0 whatever the phase.  Consumers
    needing phase continuity across times must track the global factor themselves.
    """
    s, L = _scaled_shape(packet, params, t)
    x = np.asarray(x, dtype=float)
    h = packet.hbar
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, where |psi| is not 0
        spread = math.pi * h * s.A
        _check_spread(spread)
        # the ufunc, not a NumPy scalar's own power, so a float time rounds as an array does
        amplitude = np.power(spread, -0.25) * np.exp(-0.5 * L)
        b_half = s.Bc1 * x / 2.0 + s.Bc0
        phase = -b_half * x / (2.0 * h * s.A)
        envelope = np.exp(-(_offset(x, L, s.v) ** 2) / (2.0 * h * s.A))
    lost = ~np.isfinite(phase)
    if (lost & (amplitude * envelope != 0.0)).any():
        raise NumericalConsistencyError(
            f"phase of psi at t up to {np.max(t):.6g} exceeds the double range"
        )
    # where the modulus underflows to 0 the phase does not matter: psi is 0 there
    return amplitude * np.exp(1j * np.where(lost, 0.0, phase)) * envelope


def wigner_evolved(packet: GaussianPacket, params: OscillatorParams, x, xi, t):
    """Evolved field W0(X, Xi) at the backward image of (x, xi): the paper's
    exp(-[A xi^2 + B(x) xi + C(x)]/hbar)/(pi hbar), without expanding the quadratic.

    NumericalConsistencyError where a backward image leaves the double range.
    """
    _packet_flow(packet.hbar, params, t)  # flow_coefficients reads this flow from the memo
    return packet.wigner(*backward_map(flow_coefficients(params, t), x, xi))


def wigner_evolved_field(
    packet: GaussianPacket, params: OscillatorParams, t: float, ps_grid: PhaseSpaceGrid
) -> WignerField:
    """The packet's field transported by propagate_field onto ps_grid."""
    _packet_flow(packet.hbar, params, t)  # propagate_field reads this flow from the memo
    return propagate_field(packet.wigner, params, t, ps_grid)


def expectation_position(packet: GaussianPacket, params: OscillatorParams, t):
    """<x>_t = v(t); the forward classical trajectory of (a, p0).

    v grows like e^{2 w t} (w = sqrt(-gamma)) where A grows like e^{4 w t}, so it is
    unscaled on its own: NumericalConsistencyError only once v leaves the double range.
    """
    flow = _packet_flow(packet.hbar, params, t)
    with np.errstate(over="ignore", invalid="ignore"):  # A may overflow where v does not
        v, _ = _centre_and_width(packet.a, packet.p0, flow)
    return _unscale("the packet centre", flow[0], v)[0]

"""Closed-form dynamics of the minimum-uncertainty Gaussian packet.

Under V(x, t) = gamma x^2 + Q(t) x the transported Gaussian field stays the
exponential of a quadratic in xi, so the density, the wavefunction (up to a
global phase, fixed to zero here at every time) and the evolved field are
all explicit in the six flow coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .flow import OscillatorParams, _scaled_flow, _unscale
# looked up in this module by name by the benchmark's tracer (perfbench/tracer.py)
from .flow import drive_convolutions, flow_coefficients  # noqa: F401
from .grids import PhaseSpaceGrid
from .transform import WignerField


@dataclass(frozen=True)
class GaussianPacket:
    """Initial state with mean position a, mean momentum p0, width hbar/2."""

    a: float = 0.0
    p0: float = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.hbar <= 0:
            raise ConfigurationError(f"hbar must be positive, got {self.hbar}")
        if not (math.isfinite(self.a) and math.isfinite(self.p0)):
            raise ConfigurationError("packet parameters must be finite")


@dataclass(frozen=True)
class PacketShape:
    """Quadratic-exponent data of the evolved packet at time t.

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


def _scaled_shape(
    packet: GaussianPacket, params: OscillatorParams, t: float
) -> tuple[PacketShape, float]:
    """(shape, L): PacketShape with A, B, C divided by e^{2L} and v by e^L, L the flow's
    log-scale (0 unless gamma < 0), so v/sqrt(A) stays finite where the fields overflow."""
    if abs(params.hbar - packet.hbar) > 1e-12 * packet.hbar:
        raise ConfigurationError("packet and oscillator must share hbar")
    L, (a1, a2, a3, b1, b2, b3), (conv_q, _) = _scaled_flow(params, t)
    decay = math.exp(-L)
    da = a3 - packet.a * decay
    db = b3 - packet.p0 * decay
    # v = -b2*da + a2*db restructured so the e^{4wt}-scale parts enter as the
    # single-scale convolution conv_q = a2 b3 - b2 a3 (no cancellation).
    return PacketShape(
        A=a2 * a2 + b2 * b2,
        Bc0=2.0 * (a2 * da + b2 * db),
        Bc1=2.0 * (a2 * a1 + b2 * b1),
        Cc0=da * da + db * db,
        Cc1=2.0 * (a1 * da + b1 * db),
        Cc2=a1 * a1 + b1 * b1,
        v=packet.a * b2 - packet.p0 * a2 + conv_q,
        t=t,
    ), L


def packet_shape(packet: GaussianPacket, params: OscillatorParams, t: float) -> PacketShape:
    """Raises NumericalConsistencyError where a field exceeds the double range."""
    s, L = _scaled_shape(packet, params, t)
    quadratic = _unscale(2.0 * L, s.A, s.Bc0, s.Bc1, s.Cc0, s.Cc1, s.Cc2)
    return PacketShape(*quadratic, *_unscale(L, s.v), t)


def density(packet: GaussianPacket, params: OscillatorParams, x, t: float):
    """|psi(x, t)|^2 = exp(-(x - v)^2/(hbar A)) / sqrt(pi hbar A)."""
    s = packet_shape(packet, params, t)
    x = np.asarray(x, dtype=float)
    return np.exp(-((x - s.v) ** 2) / (packet.hbar * s.A)) / math.sqrt(
        math.pi * packet.hbar * s.A
    )


def wavefunction(packet: GaussianPacket, params: OscillatorParams, x, t: float):
    """psi(x, t) with the (undetermined) global phase fixed to zero.

    The x-dependent phase is -B(x/2) x / (2 hbar A); consumers needing phase
    continuity across times must track the global factor themselves.
    """
    s = packet_shape(packet, params, t)
    x = np.asarray(x, dtype=float)
    h = packet.hbar
    b_half = s.Bc1 * x / 2.0 + s.Bc0
    phase = -b_half * x / (2.0 * h * s.A)
    return (
        (math.pi * h * s.A) ** -0.25
        * np.exp(1j * phase)
        * np.exp(-((x - s.v) ** 2) / (2.0 * h * s.A))
    )


def wigner_evolved(packet: GaussianPacket, params: OscillatorParams, x, xi, t: float):
    """Evolved field exp(-[A xi^2 + B(x) xi + C(x)]/hbar)/(pi hbar)."""
    s = packet_shape(packet, params, t)
    x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
    h = packet.hbar
    quad = (
        s.A * xi * xi
        + (s.Bc1 * x + s.Bc0) * xi
        + s.Cc2 * x * x
        + s.Cc1 * x
        + s.Cc0
    )
    return np.exp(-quad / h) / (math.pi * h)


def wigner_evolved_field(
    packet: GaussianPacket, params: OscillatorParams, t: float, ps_grid: PhaseSpaceGrid
) -> WignerField:
    x = ps_grid.x_grid.nodes()[:, None]
    xi = ps_grid.xi_grid.nodes()[None, :]
    return WignerField(ps_grid, wigner_evolved(packet, params, x, xi, t), packet.hbar)


def expectation_position(packet: GaussianPacket, params: OscillatorParams, t: float) -> float:
    """<x>_t = v(t); the forward classical trajectory of (a, p0)."""
    return packet_shape(packet, params, t).v

"""Tunnel-effect observables for the (driven) inverted oscillator.

A Gaussian packet launched from a < 0 with mean momentum p0 >= 0 against the
barrier V = -omega^2 x^2 + Q(t) x; P(t) is the probability mass left of 0,
which stays a closed-form erf expression because the density remains
Gaussian for all times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigurationError, UnsupportedConfigurationError
from .flow import Constant, Cosine, DrivePolicy, OscillatorParams
from .gaussian import GaussianPacket, _scaled_shape
# looked up in this module by name by the benchmark's tracer (perfbench/tracer.py)
from .gaussian import packet_shape  # noqa: F401
from .special import erfc
from .tolerances import REPORT_TOL

Regime = Literal["subcritical", "critical", "supercritical"]


@dataclass(frozen=True)
class TunnelScenario:
    """Gaussian packet against the inverted-oscillator barrier gamma = -omega^2."""

    packet: GaussianPacket
    omega: float
    drive: DrivePolicy = Constant(0.0)

    def __post_init__(self) -> None:
        if self.omega <= 0:
            raise ConfigurationError(f"omega must be positive, got {self.omega}")

    def oscillator(self) -> OscillatorParams:
        return OscillatorParams(-self.omega**2, self.drive, self.packet.hbar)


@dataclass(frozen=True)
class TunnelReport:
    p_crit: float
    P_inf: float
    regime: Regime
    E_q: float | None
    E_c: float | None


def _is_undriven(drive: DrivePolicy) -> bool:
    return isinstance(drive, Constant) and drive.lam == 0.0


def _drive_terms(drive: DrivePolicy) -> tuple[float, float, float]:
    """(lam, b, Omega) of a closed-form drive."""
    if isinstance(drive, Constant):
        return drive.lam, 0.0, 1.0
    if isinstance(drive, Cosine):
        return drive.lam, drive.b, drive.Omega
    raise UnsupportedConfigurationError(
        "asymptotics are only defined for constant or cosine drives"
    )


def survival_probability(scenario: TunnelScenario, t: float) -> float:
    """P(t) = mass of |psi|^2 on x < 0 = erfc(v(t)/sqrt(hbar A(t)))/2, finite for every t:
    v and sqrt(A) share the flow's growth, so the ratio is taken of their mantissas."""
    shape, _ = _scaled_shape(scenario.packet, scenario.oscillator(), t)
    return 0.5 * erfc(shape.v / math.sqrt(scenario.packet.hbar * shape.A))


def asymptotic_probability(scenario: TunnelScenario) -> float:
    """Limit of P(t): the hyperbolic growth of v and sqrt(A) share a rate,
    so the erf argument converges; the cosine drive contributes only through
    its resonance-weighted mean."""
    pk = scenario.packet
    w = scenario.omega
    lam, b, omega_d = _drive_terms(scenario.drive)
    arg = (
        -lam / (2.0 * w)
        + pk.a * w
        + pk.p0
        - 2.0 * b * w / (omega_d**2 + 4.0 * w**2)
    ) / (math.sqrt(pk.hbar) * math.sqrt(1.0 + w * w))
    return 0.5 * erfc(arg)


def critical_momentum(scenario: TunnelScenario) -> float:
    """Initial mean momentum at which the limit probability is exactly 1/2."""
    pk = scenario.packet
    w = scenario.omega
    if _is_undriven(scenario.drive):
        return abs(w * pk.a)
    lam, b, omega_d = _drive_terms(scenario.drive)
    d = omega_d**2 + 4.0 * w**2
    return (lam * d + 4.0 * b * w * w - 2.0 * w * w * pk.a * d) / (2.0 * w * d)


def energies(scenario: TunnelScenario) -> tuple[float, float]:
    """(E_q, E_c) of the undriven barrier; E_q - E_c = (1 - omega^2) hbar / 2."""
    if not _is_undriven(scenario.drive):
        raise UnsupportedConfigurationError("energies are defined for the undriven barrier only")
    pk = scenario.packet
    w = scenario.omega
    e_c = pk.p0**2 - w * w * pk.a**2
    return 0.5 * (1.0 - w * w) * pk.hbar + e_c, e_c


def classify_regime(scenario: TunnelScenario) -> Regime:
    gap = scenario.packet.p0 - critical_momentum(scenario)
    if abs(gap) <= REPORT_TOL:
        return "critical"
    return "subcritical" if gap < 0 else "supercritical"


def asymptotic_time(omega: float) -> float:
    """Time beyond which P(t) sits within ~e^{-2 omega t} of its limit."""
    return max(15.0 / (2.0 * omega), 10.0)


def tunnel_report(scenario: TunnelScenario) -> TunnelReport:
    if _is_undriven(scenario.drive):
        e_q, e_c = energies(scenario)
    else:
        e_q = e_c = None
    return TunnelReport(
        p_crit=critical_momentum(scenario),
        P_inf=asymptotic_probability(scenario),
        regime=classify_regime(scenario),
        E_q=e_q,
        E_c=e_c,
    )


def figure1_series(
    a: float,
    omega: float,
    hbar: float,
    p0_list,
    t_grid,
    drive: DrivePolicy = Constant(0.0),
) -> np.ndarray:
    """P(t) sampled on t_grid for each p0; shape (len(p0_list), len(t_grid))."""
    t_grid = np.asarray(t_grid, dtype=float)
    rows = []
    for p0 in p0_list:
        scenario = TunnelScenario(GaussianPacket(a, float(p0), hbar), omega, drive)
        rows.append([survival_probability(scenario, float(t)) for t in t_grid])
    return np.asarray(rows)

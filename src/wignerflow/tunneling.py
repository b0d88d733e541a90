"""Tunnel-effect observables for the (driven) inverted oscillator.

A Gaussian packet launched from a < 0 with mean momentum p0 >= 0 against the
barrier V = -omega^2 x^2 + Q(t) x; P(t) is the probability mass left of 0,
which stays a closed-form erf expression because the density remains
Gaussian for all times.  The barrier's flow does not depend on the packet and
p0 enters the density centre linearly, so figure1_series evaluates the flow
once on its time grid and takes every p0 as one more array axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    NumericalConsistencyError, UnsupportedConfigurationError, check_params, finite_result
)
from .flow import Constant, Cosine, DrivePolicy, OscillatorParams
from .gaussian import GaussianPacket, _centre_and_width, _check_spread, _packet_flow
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
        _check_omega(self.omega)

    def oscillator(self) -> OscillatorParams:
        return OscillatorParams(-self.omega**2, self.drive, self.packet.hbar)


@dataclass(frozen=True)
class TunnelReport:
    p_crit: float
    P_inf: float
    regime: Regime
    E_q: float | None
    E_c: float | None


def _check_omega(omega) -> None:
    check_params("> 0", omega=omega)
    w = float(omega)
    check_params(**{f"4 omega^2 (omega={w})": 4.0 * w * w})


def _is_undriven(drive: DrivePolicy) -> bool:
    return isinstance(drive, Constant) and drive.lam == 0.0


def _critical_offset(scenario: TunnelScenario) -> float:
    """lam/(2w) + 2b/(Omega^2/w + 4w) - w a, the initial mean momentum at which the limit
    probability is 1/2 (b = 0 for a constant drive), unchecked: +-inf past the double range.
    Each term is formed on its own scale, and the denominator is at least 4w > 0."""
    drive, w = scenario.drive, scenario.omega
    if not isinstance(drive, (Constant, Cosine)):
        raise UnsupportedConfigurationError("asymptotics need a constant or cosine drive")
    offset = drive.lam / (2.0 * w) - w * scenario.packet.a
    if isinstance(drive, Cosine):
        offset += 2.0 * drive.b / (drive.Omega * drive.Omega / w + 4.0 * w)
    return offset


def survival_probability(scenario: TunnelScenario, t):
    """P(t) at each t (a float or an array): row 0 of figure1_series for the one packet."""
    pk = scenario.packet
    return figure1_series(pk.a, scenario.omega, pk.hbar, [pk.p0], t, scenario.drive)[0]


def asymptotic_probability(scenario: TunnelScenario) -> float:
    """Limit of P(t): the hyperbolic growth of v and sqrt(A) share a rate,
    so the erf argument converges; the cosine drive contributes only through
    its resonance-weighted mean.  0 or 1 at p_crit = +-inf, NumericalConsistencyError at nan."""
    pk, w, offset = scenario.packet, scenario.omega, _critical_offset(scenario)
    if math.isnan(offset):
        raise NumericalConsistencyError("the critical momentum is inf - inf (drive terms overflow)")
    arg = (pk.p0 - offset) / (math.sqrt(pk.hbar) * math.sqrt(1.0 + w * w))
    return 0.5 * erfc(arg)


def critical_momentum(scenario: TunnelScenario) -> float:
    """Initial mean momentum at which the limit probability is exactly 1/2, for either sign
    of a; NumericalConsistencyError where it leaves the double range."""
    return finite_result("the critical momentum", _critical_offset(scenario))


def energies(scenario: TunnelScenario) -> tuple[float, float]:
    """(E_q, E_c) of the undriven barrier; E_q - E_c = (1 - omega^2) hbar / 2."""
    if not _is_undriven(scenario.drive):
        raise UnsupportedConfigurationError("energies are defined for the undriven barrier only")
    pk, w = scenario.packet, scenario.omega
    e_c = pk.p0 * pk.p0 - w * w * (pk.a * pk.a)
    e_q = 0.5 * (1.0 - w * w) * pk.hbar + e_c
    return finite_result("the packet's energy", (e_q, e_c))


def classify_regime(scenario: TunnelScenario) -> Regime:
    gap = scenario.packet.p0 - critical_momentum(scenario)
    if abs(gap) <= REPORT_TOL:
        return "critical"
    return "subcritical" if gap < 0 else "supercritical"


def asymptotic_time(omega: float) -> float:
    """Time beyond which P(t) sits within ~e^{-2 omega t} of its limit."""
    check_params("> 0", omega=omega)
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
    """P(t) = mass of |psi|^2 on x < 0 = erfc(v/sqrt(hbar A))/2 sampled on t_grid for each
    p0; shape (len(p0_list), *t_grid.shape).

    v and sqrt(A) share the flow's growth, so their scaled mantissas (_centre_and_width) give
    the ratio; NumericalConsistencyError only where v or the width hbar A leaves the normal
    doubles (_check_spread), as at t past ~1e154 on a barrier with omega^2 ~ 0.  The packets
    share the barrier, so one flow on t_grid serves them all and p0 is the leading axis of
    a single erfc call.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    p0 = np.asarray(p0_list, dtype=float).reshape((-1,) + (1,) * t_grid.ndim)
    check_params(a=a)  # the packets' and scenario's rules, once; hbar by OscillatorParams
    if not np.isfinite(p0).all():
        check_params(p0=float(p0[~np.isfinite(p0)][0]))
    _check_omega(omega)
    params = OscillatorParams(-omega**2, drive, hbar)
    # v and hbar A are checked; a centre many widths off reads z = +-inf, where P is 0 or 1
    with np.errstate(over="ignore", invalid="ignore"):
        v, A = _centre_and_width(a, p0, _packet_flow(hbar, params, t_grid))
        _check_spread(np.pi * hbar * A, v)
        z = v / np.sqrt(hbar * A)
    return 0.5 * erfc(z)

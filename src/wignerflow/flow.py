"""Exact phase-space flow for V(x, t) = gamma x^2 + Q(t) x (2m = 1 units).

The transport equation dW/dt = -2 xi dW/dx + (2 gamma x + Q(t)) dW/dxi is
solved by composing the initial field with an affine backward map.  Its six
coefficients are entire functions of gamma*t^2, written once for every
curvature regime through cos, sinc and Stumpff c3 of the half angle
sqrt(gamma) t (hyperbolic for gamma < 0, where the analytic continuation
keeps the Wronskian a2*b1 - a1*b2 = -1), with closed-form drive integrals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Union

import numpy as np

from .catalog import HarmonicEigen
from .errors import ConfigurationError, NumericalConsistencyError
from .grids import PhaseSpaceGrid
from .transform import WignerField

_TINY = 1e-300
# c3(z) = sum_n (-z)^n/(2n + 3)!, to rounding for |z| <= 1
_C3_SERIES = tuple(1.0 / math.factorial(2 * n + 3) for n in range(9))
# _angle on Python floats through math, an order of magnitude cheaper per call than NumPy
_SCALAR = SimpleNamespace(cos=math.cos, sin=math.sin, exp=math.exp, expm1=math.expm1, maximum=max,
                          minimum=min, where=lambda cond, a, b: a if cond else b)


@dataclass(frozen=True)
class Constant:
    """Q(t) = lam (a linear Stark term; lam = 0 is the undriven oscillator)."""

    lam: float = 0.0


@dataclass(frozen=True)
class Cosine:
    """Q(t) = lam + b*cos(Omega*t)."""

    lam: float
    b: float
    Omega: float


@dataclass(frozen=True)
class Tabulated:
    """Q(t) linearly interpolated between samples; constant beyond the table."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
            raise ConfigurationError("tabulated drive needs matching 1-D arrays of length >= 2")
        if not np.all(np.diff(t) > 0):
            raise ConfigurationError("tabulated drive times must be strictly ascending")


DrivePolicy = Union[Constant, Cosine, Tabulated]


def drive_value(drive: DrivePolicy, t):
    """Q(t), vectorised over t."""
    t = np.asarray(t, dtype=float)
    if isinstance(drive, Constant):
        return np.full_like(t, drive.lam)
    if isinstance(drive, Cosine):
        return drive.lam + drive.b * np.cos(drive.Omega * t)
    return np.interp(t, drive.times, drive.values)


@dataclass(frozen=True)
class OscillatorParams:
    """Quadratic potential gamma x^2 plus the drive Q(t) x."""

    gamma: float
    drive: DrivePolicy = Constant(0.0)
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma):
            raise ConfigurationError("gamma must be finite")
        if self.hbar <= 0:
            raise ConfigurationError(f"hbar must be positive, got {self.hbar}")


@dataclass(frozen=True)
class FlowCoefficients:
    """Backward characteristic map X = a1 x + a2 xi + a3, Xi = b1 x + b2 xi + b3.

    a2*b1 - a1*b2 = -1 holds analytically for every regime; in floating
    point the hyperbolic branch can only represent it while cosh(2 w t)^2
    stays within ~1e-10/eps (cancellation), which bounds usable 2*w*t by
    about 6 when asserting at that tolerance.
    """

    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    b3: float
    t: float

    def wronskian(self) -> float:
        return self.a2 * self.b1 - self.a1 * self.b2


def _angle(gamma: float, t):
    """(c, s, k3, L) of theta = sqrt(gamma) t, elementwise over t >= 0: cos(theta) = c e^{L/2},
    sin(theta)/theta = s e^{L/2}, c3 = (2 theta - sin 2 theta)/(2 theta)^3 = k3 e^L.

    For gamma < 0 these are cosh, sinh(w)/w and (sinh 2w - 2w)/(2w)^3 of
    w = sqrt(-gamma) t, and L = 2w splits off their growth (L = 0 otherwise).
    The only function that reads the sign of gamma.
    """
    xp = np if isinstance(t, np.ndarray) else _SCALAR
    # the floor only removes the 0/0 of sin(theta)/theta at theta = 0
    theta = xp.maximum(math.sqrt(abs(gamma)) * t, _TINY)
    # c3 by its series up to 2 theta = 1 and directly beyond, at clamped arguments
    small, big = xp.minimum(theta, 0.5), 2.0 * xp.maximum(theta, 0.5)
    if gamma >= 0.0:
        c, s = xp.cos(theta), xp.sin(theta) / theta
        z, decay, L = 4.0 * small * small, 1.0, 0.0
        direct = (1.0 - xp.sin(big) / big) / (big * big)
    else:
        decay = xp.exp(-2.0 * theta)
        c, s = 0.5 + 0.5 * decay, -xp.expm1(-2.0 * theta) / (2.0 * theta)
        z, L = -4.0 * small * small, 2.0 * theta
        direct = (-0.5 * xp.expm1(-2.0 * big) / big - xp.exp(-big)) / (big * big)
    series = 0.0
    for coef in reversed(_C3_SERIES):
        series = series * -z + coef
    return c, s, xp.where(theta < 0.5, decay * series, direct), L


def _homogeneous(gamma: float, t, c, s):
    """(a1, a2, b1, b2) / e^L from the half-angle functions of _angle."""
    a1 = c * c - gamma * t * t * s * s
    a2 = -2.0 * t * c * s
    return a1, a2, -gamma * a2, a1


def _entries(gamma: float, t):
    """Unscaled homogeneous entries (a1, a2, b1, b2) at a float or an array of t >= 0."""
    c, s, _, L = _angle(gamma, t)
    return tuple(np.exp(L) * e for e in _homogeneous(gamma, t, c, s))


def _unscale(L: float, *mantissas: float) -> tuple[float, ...]:
    """mantissa * e^L for each value; NumericalConsistencyError past the double range."""
    half = math.exp(min(L, 2.0 * math.log(sys.float_info.max)) / 2.0)
    values = tuple(m * half * half for m in mantissas)
    if not all(map(math.isfinite, values)):
        raise NumericalConsistencyError(f"flow value of growth e^{L:.6g} exceeds the double range")
    return values


def _cosine_terms(gamma: float, t: float, omega_d: float, c, s, L):
    """(a3, b3, conv_q, conv_p) / e^L of the unit drive cos(omega_d t): divided differences
    in x = gamma t^2, y = (omega_d t/2)^2 of sin(sqrt z)^2 and sin(2 sqrt z)/(2 sqrt z).

    Away from resonance they are quotients; near it (x ~ y >= 0) sinc products
    of the sum and difference angles, exact at omega_d = 2 sqrt(gamma).
    """
    half = 0.5 * abs(omega_d)
    phi = half * t
    x, y = gamma * t * t, phi * phi
    if abs(x - y) > 0.5 * (abs(x) + y):
        c_y, s_y, _, _ = _angle(1.0, phi)
        decay, d = math.exp(-L), x - y
        g_x, h_x, g_y, h_y = x * s * s, s * c, y * s_y * s_y, s_y * c_y
        a3 = t * t * (2.0 * y * h_x * h_y - g_x * (1.0 - 2.0 * g_y) - decay * g_y) / d
        b3 = t * (x * h_x * (1.0 - 2.0 * g_y) - y * h_y * (decay - 2.0 * g_x)) / d
        return a3, b3, -t * t * (g_x - decay * g_y) / d, t * (x * h_x - decay * y * h_y) / d
    # the resonant terms hinge on the detuning theta - phi: from exact gamma - (omega_d/2)^2
    theta = max(math.sqrt(x), _TINY)
    total = theta + phi
    dif = t * t * float(Fraction(gamma) - Fraction(half) ** 2) / total
    c_sum, s_sum, _, _ = _angle(1.0, total)
    c_dif, s_dif, _, _ = _angle(1.0, abs(dif))
    a3 = -t * t * (total * s_sum * s_sum + dif * s_dif * s_dif) / (total + dif)
    b3 = 0.5 * t * (s_sum * c_sum + s_dif * c_dif)
    return a3, b3, -t * t * s_sum * s_dif, 0.5 * t * (c_sum * s_dif + s_sum * c_dif)


def _tabulated_terms(gamma: float, drive: Tabulated, t: float, L: float):
    """(a3, b3, conv_q, conv_p) / e^L of a piecewise-linear drive: each segment is
    integrated against the kernel in its own local time and carried to 0 (forward
    terms) or t (convolutions) by the homogeneous map, never as a difference of
    large antiderivatives."""
    times = drive.times
    knots = np.concatenate(([0.0], times[(times > 0.0) & (times < t)], [t]))
    q = np.interp(knots, times, drive.values)
    h, dq = np.diff(knots), np.diff(q)
    c, s, k3, l_seg = _angle(gamma, h)
    hs = h * s
    # Int_0^h a2 = -(hs)^2, Int_0^h b2 = hs c, Int_0^h (h - u) a2(u) du = -2 h^2 k3
    sq, sc, ramp, half = hs * hs, hs * c, 2.0 * h * h * k3, 0.5 * hs * s
    fwd_a, fwd_b = -q[1:] * sq + dq * ramp, q[1:] * sc - dq * half
    rev_a, rev_b = -q[:-1] * sq - dq * ramp, q[:-1] * sc + dq * half

    def carried(t_map, f_a, f_b):
        c_m, s_m, _, l_map = _angle(gamma, t_map)
        a1, a2, b1, b2 = _homogeneous(gamma, t_map, c_m, s_m)
        grow = np.exp(l_map + l_seg - L)
        return tuple(float(np.sum(grow * (u * f_a + v * f_b))) for u, v in ((a1, a2), (b1, b2)))

    return (*carried(knots[:-1], fwd_a, fwd_b), *carried(t - knots[1:], rev_a, rev_b))


def _scaled_flow(params: OscillatorParams, t: float):
    """(L, (a1, a2, a3, b1, b2, b3), (conv_q, conv_p)), every value divided by e^L.

    The drive terms are a3 = Int_0^t Q(s) a2(s) ds, b3 = Int_0^t Q(s) b2(s) ds,
    conv_q = Int_0^t Q(s) a2(t - s) ds and conv_p = Int_0^t Q(s) b2(t - s) ds.
    """
    if t < 0:
        raise ValueError(f"flow time must be non-negative, got {t}")
    t, gamma, drive = float(t), params.gamma, params.drive
    c, s, k3, L = _angle(gamma, t)
    a1, a2, b1, b2 = _homogeneous(gamma, t, c, s)
    if isinstance(drive, Tabulated):
        a3, b3, conv_q, conv_p = _tabulated_terms(gamma, drive, t, L)
    else:  # constant part: Int a2 = (a1 - 1)/(2 gamma) = -(t s)^2, Int b2 = -a2/2
        a3 = conv_q = -drive.lam * t * t * s * s
        b3 = conv_p = drive.lam * t * s * c
        if isinstance(drive, Cosine):
            terms = zip((a3, b3, conv_q, conv_p), _cosine_terms(gamma, t, drive.Omega, c, s, L))
            a3, b3, conv_q, conv_p = (u + drive.b * v for u, v in terms)
    return L, (a1, a2, a3, b1, b2, b3), (conv_q, conv_p)


def flow_coefficients(params: OscillatorParams, t: float) -> FlowCoefficients:
    """Method-of-characteristics map coefficients at time t >= 0; NumericalConsistencyError
    where one exceeds the double range (gamma < 0, 2 sqrt(-gamma) t beyond about 709)."""
    L, coeffs, _ = _scaled_flow(params, t)
    return FlowCoefficients(*_unscale(L, *coeffs), t)


def drive_convolutions(params: OscillatorParams, t: float) -> tuple[float, float]:
    """Inhomogeneous displacements of the reversed-time classical flow,

        conv_q = Int_0^t Q(s) a2(t - s) ds  ( = a2 b3 - b2 a3 )
        conv_p = Int_0^t Q(s) b2(t - s) ds  ( = a1 b3 - b1 a3 )

    evaluated in closed form.  The product combinations on the right cancel
    catastrophically once cosh(2 w t) exceeds ~1/sqrt(eps); these direct
    forms stay single-scale and are accurate wherever they are representable.
    """
    L, _, conv = _scaled_flow(params, t)
    return _unscale(L, *conv)


def backward_map(coeffs: FlowCoefficients, x, xi):
    """(X, Xi): the phase-space point whose forward image at time t is (x, xi)."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return (
        coeffs.a1 * x + coeffs.a2 * xi + coeffs.a3,
        coeffs.b1 * x + coeffs.b2 * xi + coeffs.b3,
    )


def forward_map(coeffs: FlowCoefficients, x0, xi0):
    """Inverse of backward_map (unit determinant, so no division)."""
    u = np.asarray(x0, dtype=float) - coeffs.a3
    v = np.asarray(xi0, dtype=float) - coeffs.b3
    return (coeffs.b2 * u - coeffs.a2 * v, -coeffs.b1 * u + coeffs.a1 * v)


def classical_flow(params: OscillatorParams, x, xi, t: float):
    """Hamiltonian flux of h = p^2 + V(q, t) integrated with reversed signs
    (q' = -2p, p' = +dV/dq), so that for a time-independent drive it
    coincides with the backward map composing the transported field."""
    c = flow_coefficients(params, t)
    conv_q, conv_p = drive_convolutions(params, t)
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return c.a1 * x + c.a2 * xi + conv_q, c.b1 * x + c.b2 * xi + conv_p


InitialField = Union[WignerField, Callable[[np.ndarray, np.ndarray], np.ndarray]]


def field_evaluator(field: WignerField) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Bilinear interpolation on the field's grid, zero outside."""
    xg, xig = field.grid.x_grid, field.grid.xi_grid
    vals = field.values
    n, m = vals.shape

    def evaluate(x, xi):
        fx = (np.asarray(x, float) - xg.x_min) / xg.step
        fxi = (np.asarray(xi, float) - xig.x_min) / xig.step
        inside = (fx >= 0.0) & (fx <= n - 1) & (fxi >= 0.0) & (fxi <= m - 1)
        i = np.clip(np.floor(fx).astype(int), 0, n - 2)
        j = np.clip(np.floor(fxi).astype(int), 0, m - 2)
        wx = np.clip(fx - i, 0.0, 1.0)
        wj = np.clip(fxi - j, 0.0, 1.0)
        v = (
            vals[i, j] * (1 - wx) * (1 - wj)
            + vals[i + 1, j] * wx * (1 - wj)
            + vals[i, j + 1] * (1 - wx) * wj
            + vals[i + 1, j + 1] * wx * wj
        )
        return np.where(inside, v, 0.0)

    return evaluate


def _as_evaluator(initial: InitialField):
    if isinstance(initial, WignerField):
        return field_evaluator(initial)
    return initial


def _evaluate_transported(initial, coeffs: FlowCoefficients, x_nodes, xi_nodes) -> np.ndarray:
    x = np.asarray(x_nodes, float)[:, None]
    xi = np.asarray(xi_nodes, float)[None, :]
    bx, bxi = backward_map(coeffs, x, xi)
    return np.asarray(initial(bx, bxi), dtype=float)


def propagate_field(
    initial: InitialField, params: OscillatorParams, t: float, ps_grid: PhaseSpaceGrid
) -> WignerField:
    """Transport: W(x, xi, t) = W0(X(x, xi, t), Xi(x, xi, t)) sampled on the grid.

    ``initial`` is a closed-form evaluator (x, xi) -> W0 defined on all of
    R^2, or a gridded field used through bilinear interpolation with zero
    extension (interpolation error is then the caller's responsibility).
    """
    coeffs = flow_coefficients(params, t)
    evaluator = _as_evaluator(initial)
    values = _evaluate_transported(
        evaluator, coeffs, ps_grid.x_grid.nodes(), ps_grid.xi_grid.nodes()
    )
    return WignerField(ps_grid, values, params.hbar)


def liouville_residual(
    params: OscillatorParams,
    initial: InitialField,
    t: float,
    ps_grid: PhaseSpaceGrid,
    dt: float,
    dx: float,
    dxi: float,
) -> float:
    """Max-norm central-difference residual of the transport equation.

    All seven samples are transported fields (time-shifted grids and
    space-shifted meshes), so the residual measures pure discretisation
    error and decays at second order in (dt, dx, dxi).
    """
    if min(dt, dx, dxi) <= 0:
        raise ConfigurationError("finite-difference steps must be positive")
    if t - dt < 0:
        raise ValueError("need t - dt >= 0 for the centred time stencil")
    evaluator = _as_evaluator(initial)
    xs = ps_grid.x_grid.nodes()
    xis = ps_grid.xi_grid.nodes()

    def field_at(time: float, x_nodes, xi_nodes) -> np.ndarray:
        return _evaluate_transported(evaluator, flow_coefficients(params, time), x_nodes, xi_nodes)

    w_tp = field_at(t + dt, xs, xis)
    w_tm = field_at(t - dt, xs, xis)
    w_xp = field_at(t, xs + dx, xis)
    w_xm = field_at(t, xs - dx, xis)
    w_kp = field_at(t, xs, xis + dxi)
    w_km = field_at(t, xs, xis - dxi)

    q_now = float(drive_value(params.drive, t))
    dw_dt = (w_tp - w_tm) / (2.0 * dt)
    dw_dx = (w_xp - w_xm) / (2.0 * dx)
    dw_dxi = (w_kp - w_km) / (2.0 * dxi)
    residual = dw_dt + 2.0 * xis[None, :] * dw_dx - (2.0 * params.gamma * xs[:, None] + q_now) * dw_dxi
    return float(np.max(np.abs(residual[1:-1, 1:-1])))


def stationary_residual(
    state: HarmonicEigen,
    E: float,
    point: tuple[float, float],
    steps: tuple[float, float],
) -> tuple[float, float]:
    """Finite-difference residuals of the eigenvalue pair for a harmonic
    eigenstate field: the second-order equation (rA) and the transport
    constraint (rB), both evaluated at one phase-space point."""
    x, xi = point
    dx, dxi = steps
    if min(dx, dxi) <= 0:
        raise ConfigurationError("finite-difference steps must be positive")
    h = state.hbar
    w0 = float(state.wigner(x, xi))
    wxx = (float(state.wigner(x + dx, xi)) - 2.0 * w0 + float(state.wigner(x - dx, xi))) / dx**2
    wkk = (float(state.wigner(x, xi + dxi)) - 2.0 * w0 + float(state.wigner(x, xi - dxi))) / dxi**2
    wx = (float(state.wigner(x + dx, xi)) - float(state.wigner(x - dx, xi))) / (2.0 * dx)
    wk = (float(state.wigner(x, xi + dxi)) - float(state.wigner(x, xi - dxi))) / (2.0 * dxi)

    v = state.omega**2 * x * x
    v2 = 2.0 * state.omega**2
    r_a = E * w0 - (-(h * h / 4.0) * wxx + (xi * xi + v) * w0 - (h * h / 8.0) * v2 * wkk)
    r_b = -2.0 * xi * wx + 2.0 * state.omega**2 * x * wk
    return float(r_a), float(r_b)


def delta_stationary_residual(
    gamma: float,
    hbar: float,
    point: tuple[float, float],
    xi_cutoff: float,
    fd_step: float = 2e-3,
    quad_step: float | None = None,
) -> tuple[float, float]:
    """Residuals of the delta-potential stationary pair on the bound state.

    The nonlocal term couples all momenta through an oscillatory kernel, so
    the xi' integral is resolved with a step tied to the oscillation length
    pi*hbar/(2|x|).  x-derivatives use centred differences; the |x| kink at
    0 is excluded (require |x| > fd_step).
    """
    from .catalog import DeltaBound

    state = DeltaBound(gamma, hbar)
    x, xi = point
    if abs(x) <= fd_step:
        raise ConfigurationError("evaluation point must avoid the kink at x = 0")
    if xi_cutoff <= abs(xi):
        raise ConfigurationError("xi_cutoff must exceed the evaluation |xi|")

    if quad_step is None:
        quad_step = min(0.05, math.pi * hbar / (50.0 * max(abs(x), 0.1)))
    n = int(math.ceil(2.0 * xi_cutoff / quad_step))
    n += n % 2  # Simpson needs an even interval count
    xi_p = np.linspace(-xi_cutoff, xi_cutoff, n + 1)
    w_row = state.wigner(x, xi_p)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    hq = 2.0 * xi_cutoff / n

    phase = 2.0 * (0.0 - x) * (xi_p - xi) / hbar
    int_cos = float(hq / 3.0 * np.sum(weights * w_row * np.cos(phase)))
    int_sin = float(hq / 3.0 * np.sum(weights * w_row * np.sin(phase)))

    w0 = float(state.wigner(x, xi))
    wxx = (
        float(state.wigner(x + fd_step, xi)) - 2.0 * w0 + float(state.wigner(x - fd_step, xi))
    ) / fd_step**2
    wx = (
        float(state.wigner(x + fd_step, xi)) - float(state.wigner(x - fd_step, xi))
    ) / (2.0 * fd_step)

    energy = -(gamma * gamma) / (4.0 * hbar * hbar)
    r40 = energy * w0 - (
        -(hbar * hbar / 4.0) * wxx + xi * xi * w0 + gamma / (hbar * math.pi) * int_cos
    )
    r41 = -2.0 * xi * wx + 2.0 * gamma / (math.pi * hbar * hbar) * int_sin
    return float(r40), float(r41)

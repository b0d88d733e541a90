"""Exact phase-space flow for V(x, t) = gamma x^2 + Q(t) x (2m = 1 units).

The transport equation dW/dt = -2 xi dW/dx + (2 gamma x + Q(t)) dW/dxi is
solved by composing the initial field with an affine backward map.  Its six
coefficients are entire functions of gamma*t^2, written once for every
curvature regime through cos, sinc and Stumpff c3 of the half angle
sqrt(gamma) t (hyperbolic for gamma < 0, where the analytic continuation
keeps the Wronskian a2*b1 - a1*b2 = -1), with closed-form drive integrals.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .catalog import DeltaBound, HarmonicEigen
from .errors import (
    ConfigurationError, NumericalConsistencyError, all_at_least, all_finite, check_params,
    finite_result, reject_nan,
)
from .grids import PhaseSpaceGrid
from .transform import WignerField, _row_chunks

_TINY = 1e-300
# c3(z) = sum_n (-z)^n/(2n + 3)!, to rounding for |z| <= 1
_C3_SERIES = tuple(1.0 / math.factorial(2 * n + 3) for n in range(9))


@dataclass(frozen=True)
class Constant:
    """Q(t) = lam (a linear Stark term; lam = 0 is the undriven oscillator)."""

    lam: float = 0.0

    def __post_init__(self) -> None:
        check_params(lam=self.lam)


@dataclass(frozen=True)
class Cosine:
    """Q(t) = lam + b*cos(Omega*t); Omega^2 must be finite (the resonance test squares it)."""

    lam: float
    b: float
    Omega: float

    def __post_init__(self) -> None:
        check_params(lam=self.lam, b=self.b, Omega=self.Omega)
        w = float(self.Omega)
        check_params(**{f"Omega^2 (Omega={w})": w * w})


@dataclass(frozen=True)
class Tabulated:
    """Q(t) linearly interpolated between samples; constant beyond the table.  The samples
    are kept as read-only copies, so later writes to the caller's arrays cannot reach them."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.times, dtype=float)
        v = np.array(self.values, dtype=float)
        for samples in (t, v):
            samples.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
            raise ConfigurationError("tabulated drive needs matching 1-D arrays of length >= 2")
        if not (np.isfinite(t).all() and np.isfinite(v).all() and np.all(np.diff(t) > 0)):
            raise ConfigurationError("tabulated drive needs finite samples, rising times")


DrivePolicy = Union[Constant, Cosine, Tabulated]


def drive_value(drive: DrivePolicy, t):
    """Q(t), vectorised over t; NumericalConsistencyError past the double range."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ConfigurationError("drive time must be finite")
    if isinstance(drive, Constant):
        return np.full_like(t, drive.lam)[()]  # a NumPy scalar at a float time, as below
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if isinstance(drive, Cosine):
            q = drive.lam + drive.b * np.cos(drive.Omega * t)
        else:
            q = np.interp(t, drive.times, drive.values)
    if not np.isfinite(q).all():
        raise NumericalConsistencyError(f"drive at t up to {np.max(t):.6g} leaves the double range")
    return q


@dataclass(frozen=True)
class OscillatorParams:
    """Quadratic potential gamma x^2 plus the drive Q(t) x."""

    gamma: float
    drive: DrivePolicy = Constant(0.0)
    hbar: float = 1.0

    def __post_init__(self) -> None:
        check_params(gamma=self.gamma)
        check_params("> 0", hbar=self.hbar)


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
    """(c, s, L) of theta = sqrt(gamma) t, elementwise over t >= 0: cos(theta) = c e^{L/2},
    sin(theta)/theta = s e^{L/2}.

    For gamma < 0 these are cosh and sinh(w)/w of w = sqrt(-gamma) t, and L = 2w
    splits off their growth (L = 0 otherwise).
    """
    # the floor only removes the 0/0 of sin(theta)/theta at theta = 0
    theta = np.maximum(math.sqrt(abs(gamma)) * t, _TINY)
    if gamma >= 0.0:
        return np.cos(theta), np.sin(theta) / theta, 0.0
    return 0.5 + 0.5 * np.exp(-2.0 * theta), -np.expm1(-2.0 * theta) / (2.0 * theta), 2.0 * theta


def _stumpff_c3(gamma: float, t):
    """k3 = c3 e^{-L} of _angle's theta and L: c3 = (2 theta - sin 2 theta)/(2 theta)^3, for
    gamma < 0 (sinh 2w - 2w)/(2w)^3; by its series up to 2 theta = 1 and directly beyond."""
    theta = np.maximum(math.sqrt(abs(gamma)) * t, _TINY)
    small, big = np.minimum(theta, 0.5), 2.0 * np.maximum(theta, 0.5)  # clamped arguments
    if gamma >= 0.0:
        z, decay = 4.0 * small * small, 1.0
        direct = (1.0 - np.sin(big) / big) / (big * big)
    else:
        z, decay = -4.0 * small * small, np.exp(-2.0 * theta)
        direct = (-0.5 * np.expm1(-2.0 * big) / big - np.exp(-big)) / (big * big)
    series = 0.0
    for coef in reversed(_C3_SERIES):
        series = series * -z + coef
    return np.where(theta < 0.5, decay * series, direct)


def _homogeneous(gamma: float, t, c, s):
    """(a1, a2, b1, b2) / e^L from the half-angle functions of _angle."""
    a1 = c * c - gamma * t * t * s * s
    a2 = -2.0 * t * c * s
    return a1, a2, -gamma * a2, a1


def _is_e0(L) -> bool:
    """Whether the log-scale L is _angle's float 0.0 of gamma >= 0, where e^0 keeps every bit."""
    return type(L) is float and L == 0.0


def _unscale(what: str, L, *mantissas):
    """mantissa * e^L, elementwise; NumericalConsistencyError naming what (the quantities the
    mantissas scale) if any element leaves the range."""
    if not _is_e0(L):
        half = np.exp(np.minimum(L, 2.0 * math.log(sys.float_info.max)) / 2.0)
        with np.errstate(over="ignore"):
            values = tuple(m * half * half for m in mantissas)
    elif np.ndarray in map(type, mantissas):
        # arrays are copied, so a caller never holds a memoised flow's read-only array
        values = tuple(m.copy() if isinstance(m, np.ndarray) else m for m in mantissas)
    else:  # scalars are immutable: e^0 returns them as they are
        values = mantissas
    return _in_range(what, L, values)


def _in_range(what: str, L, values):
    """values, or NumericalConsistencyError naming what (the quantities they scale) if any
    element of them, unscaled by e^L, left the range."""
    if not all_finite(values):
        raise NumericalConsistencyError(
            f"{what} left the double range at scale e^{np.max(L):.6g}"
        )
    return values


@functools.lru_cache(maxsize=256)
def _detuning(gamma: float, half: float) -> float:
    """gamma - half^2 rounded once from its exact rational value (memoised: a drive's
    resonant flow asks for the same pair at every call)."""
    return float(Fraction(gamma) - Fraction(half) ** 2)


def _cosine_terms(gamma: float, t, omega_d: float, c, s, L):
    """(a3, b3, conv_q, conv_p) / e^L of the unit drive cos(omega_d t): divided differences
    in x = gamma t^2, y = (omega_d t/2)^2 of sin(sqrt z)^2 and sin(2 sqrt z)/(2 sqrt z).

    Away from resonance they are quotients; near it (x ~ y >= 0, a test that scales with t^2)
    sinc products of the sum and difference angles, exact at omega_d = 2 sqrt(gamma).
    """
    half = 0.5 * abs(omega_d)
    phi = half * t
    x, y = gamma * t * t, phi * phi
    if abs(gamma - half * half) > 0.5 * (abs(gamma) + half * half):  # |x - y| > (|x| + y)/2
        c_y, s_y, _ = _angle(1.0, phi)
        decay, d = np.exp(-L), np.where(x == y, 1.0, x - y)  # x = y only where t^2 = 0
        g_x, h_x, g_y, h_y = x * s * s, s * c, y * s_y * s_y, s_y * c_y
        a3 = t * t * (2.0 * y * h_x * h_y - g_x * (1.0 - 2.0 * g_y) - decay * g_y) / d
        b3 = t * (x * h_x * (1.0 - 2.0 * g_y) - y * h_y * (decay - 2.0 * g_x)) / d
        return a3, b3, -t * t * (g_x - decay * g_y) / d, t * (x * h_x - decay * y * h_y) / d
    # the resonant terms hinge on the detuning theta - phi: from exact gamma - (omega_d/2)^2
    theta = np.maximum(np.sqrt(x), _TINY)
    total = theta + phi
    dif = t * t * _detuning(gamma, half) / total
    c_sum, s_sum, _ = _angle(1.0, total)
    c_dif, s_dif, _ = _angle(1.0, np.abs(dif))
    a3 = -t * t * (total * s_sum * s_sum + dif * s_dif * s_dif) / (total + dif)
    b3 = 0.5 * t * (s_sum * c_sum + s_dif * c_dif)
    return a3, b3, -t * t * s_sum * s_dif, 0.5 * t * (c_sum * s_dif + s_sum * c_dif)


def _tabulated_terms(gamma: float, drive: Tabulated, t, L):
    """(a3, b3, conv_q, conv_p) / e^L of a piecewise-linear drive: each table segment, clipped
    to [0, t] (empty from t on, where it adds an exact 0), is integrated against the kernel in
    its own local time and carried to 0 (forward terms) or t (convolutions) by the homogeneous
    map, never as a difference of large antiderivatives.  The segments lie on a leading axis
    over all t at once, in blocks of bounded scratch, and are summed in table order from 0."""
    def carried(t_map, l_seg, f_a, f_b):
        c_m, s_m, l_map = _angle(gamma, t_map)
        a1, a2, b1, b2 = _homogeneous(gamma, t_map, c_m, s_m)
        grow = np.exp(l_map + l_seg - L)
        return [grow * (u * f_a + v * f_b) for u, v in ((a1, a2), (b1, b2))]

    edges = np.concatenate(([0.0], drive.times[drive.times > 0.0], [np.inf]))
    edges = edges.reshape(-1, *[1] * np.ndim(t))  # segments on a leading axis before t's
    totals = [0.0] * 4
    # scratch per segment: about 40 live temporaries of t's shape
    for block in _row_chunks(edges.shape[0] - 1, 320 * max(np.size(t), 1)):
        lo, hi = np.minimum(edges[:-1][block], t), np.minimum(edges[1:][block], t)
        q_lo, q_hi = (np.interp(e, drive.times, drive.values) for e in (lo, hi))
        h, dq = hi - lo, q_hi - q_lo
        c, s, l_seg = _angle(gamma, h)
        hs, k3 = h * s, _stumpff_c3(gamma, h)
        # Int_0^h a2 = -(hs)^2, Int_0^h b2 = hs c, Int_0^h (h - u) a2(u) du = -2 h^2 k3
        sq, sc, ramp, half = hs * hs, hs * c, 2.0 * h * h * k3, 0.5 * hs * s
        terms = (*carried(lo, l_seg, -q_hi * sq + dq * ramp, q_hi * sc - dq * half),
                 *carried(t - hi, l_seg, -q_lo * sq - dq * ramp, q_lo * sc + dq * half))
        for k, term in enumerate(terms):
            # total + term, one segment after another: accumulate never sums pairwise, as
            # a reduction over a lone segment axis does
            term[0] += totals[k]
            totals[k] = np.add.accumulate(term, out=term)[-1].copy()
    return totals


# (params, (shape, bytes) of t, result) of the latest _scaled_flow call, read and replaced
# as one tuple, so a concurrent caller sees a whole entry or none
_last_flow = None


def _scaled_flow(params: OscillatorParams, t):
    """(L, (a1, a2, a3, b1, b2, b3), (conv_q, conv_p)) of t's shape, every value divided by e^L.

    The drive terms are a3 = Int_0^t Q(s) a2(s) ds, b3 = Int_0^t Q(s) b2(s) ds,
    conv_q = Int_0^t Q(s) a2(t - s) ds and conv_p = Int_0^t Q(s) b2(t - s) ds.

    The latest result is kept and returned read-only while the same params object (identity,
    so gamma = 0.0 and -0.0 stay apart) asks again at the same times: the observables of one
    packet at one time share a single flow evaluation.
    """
    global _last_flow
    t = np.asarray(t, dtype=float)
    key = (t.shape, t.tobytes())
    last = _last_flow
    if last is not None and last[0] is params and last[1] == key:
        return last[2]
    result = _compute_flow(params, t)
    for value in (result[0], *result[1], *result[2]):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    _last_flow = (params, key, result)
    return result


@np.errstate(over="ignore", invalid="ignore")  # a time too large shows as a non-finite value
def _compute_flow(params: OscillatorParams, t: np.ndarray):
    """_scaled_flow without the memo."""
    t, gamma, drive = t[()], params.gamma, params.drive  # a float as a NumPy scalar, not 0-d
    if not all_at_least(t, 0.0):
        bad = np.extract(~(np.isfinite(t) & (t >= 0.0)), t)
        raise ConfigurationError(f"flow time must be finite and non-negative, got {bad[0]}")
    c, s, L = _angle(gamma, t)
    a1, a2, b1, b2 = _homogeneous(gamma, t, c, s)
    if isinstance(drive, Tabulated):
        a3, b3, conv_q, conv_p = _tabulated_terms(gamma, drive, t, L)
    else:  # constant part: Int a2 = (a1 - 1)/(2 gamma) = -(t s)^2, Int b2 = -a2/2
        a3 = conv_q = -drive.lam * t * t * s * s
        b3 = conv_p = drive.lam * t * s * c
        if isinstance(drive, Cosine):
            terms = zip((a3, b3, conv_q, conv_p), _cosine_terms(gamma, t, drive.Omega, c, s, L))
            a3, b3, conv_q, conv_p = (u + drive.b * v for u, v in terms)
    if not all_finite((a1, a2, a3, b1, b2, b3, conv_q, conv_p)):
        raise NumericalConsistencyError(f"flow at t up to {np.max(t):.6g} exceeds the double range")
    return L, (a1, a2, a3, b1, b2, b3), (conv_q, conv_p)


def flow_coefficients(params: OscillatorParams, t) -> FlowCoefficients:
    """Map coefficients of t's shape at finite times t >= 0 (else ConfigurationError);
    NumericalConsistencyError past the double range (gamma < 0, 2 sqrt(-gamma) t beyond ~709)."""
    L, coeffs, _ = _scaled_flow(params, t)
    return FlowCoefficients(*_unscale("flow coefficients", L, *coeffs), t)


def drive_convolutions(params: OscillatorParams, t) -> tuple[float, float]:
    """Inhomogeneous displacements of the reversed-time classical flow,

        conv_q = Int_0^t Q(s) a2(t - s) ds  ( = a2 b3 - b2 a3 )
        conv_p = Int_0^t Q(s) b2(t - s) ds  ( = a1 b3 - b1 a3 )

    evaluated in closed form.  The product combinations on the right cancel
    catastrophically once cosh(2 w t) exceeds ~1/sqrt(eps); these direct
    forms stay single-scale and are accurate wherever they are representable.
    """
    L, _, conv = _scaled_flow(params, t)
    return _unscale("drive convolutions", L, *conv)


def backward_map(coeffs: FlowCoefficients, x, xi):
    """(X, Xi) whose image at time t is (x, xi); NumericalConsistencyError past the double range."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    _check_backward_range(coeffs, x, xi)
    return (
        coeffs.a1 * x + coeffs.a2 * xi + coeffs.a3,
        coeffs.b1 * x + coeffs.b2 * xi + coeffs.b3,
    )


def forward_map(coeffs: FlowCoefficients, x0, xi0):
    """Inverse of backward_map (unit determinant, so no division), with the same range rule."""
    with np.errstate(over="ignore"):  # an overflowing shift fails the range check
        u = np.asarray(x0, dtype=float) - coeffs.a3
        v = np.asarray(xi0, dtype=float) - coeffs.b3
    linear = FlowCoefficients(coeffs.b2, coeffs.a2, 0.0, coeffs.b1, coeffs.a1, 0.0, coeffs.t)
    _check_backward_range(linear, u, v)  # the signs do not enter the bound
    return (coeffs.b2 * u - coeffs.a2 * v, -coeffs.b1 * u + coeffs.a1 * v)


def classical_flow(params: OscillatorParams, x, xi, t: float):
    """Hamiltonian flux of h = p^2 + V(q, t) integrated with reversed signs
    (q' = -2p, p' = +dV/dq), so that for a time-independent drive it
    coincides with the backward map composing the transported field."""
    L, (a1, a2, _, b1, b2, _), conv = _scaled_flow(params, t)
    a1, a2, b1, b2, conv_q, conv_p = _unscale("flow coefficients", L, a1, a2, b1, b2, *conv)
    return backward_map(FlowCoefficients(a1, a2, conv_q, b1, b2, conv_p, t), x, xi)


InitialField = Union[WignerField, Callable[[np.ndarray, np.ndarray], np.ndarray]]


def _bilinear(field: WignerField):
    """The field's bilinear interpolant, zero off its grid, as gather(x, xi, out): it fills
    out with the interpolant at the points (x, xi), three float arrays of one shape and at
    least one dimension, and leaves scratch in x and xi.  The points must not be nan."""
    xg, xig = field.grid.x_grid, field.grid.xi_grid
    n, m = field.values.shape
    flat = field.values.ravel()
    # corner (i, j) sits at flat index k = i m + j; these views put (i + 1, j), (i, j + 1)
    # and (i + 1, j + 1) at the same k
    corners = (flat, flat[m:], flat[1:], flat[m + 1 :])

    def gather(x, xi, out):
        # fractional indices clamped to [-1, n] x [-1, m]: the grid and the zero band around it
        for coord, grid, top in ((x, xg, n), (xi, xig, m)):
            coord -= grid.x_min
            coord /= grid.step
            np.clip(coord, -1.0, top, out=coord)
        off = (x < 0.0) | (x > n - 1) | (xi < 0.0) | (xi > m - 1)
        # corner indices floored and clipped in float: the same integers as an int cast
        i, j = np.floor(x), np.floor(xi)
        np.clip(i, 0, n - 2, out=i)
        np.clip(j, 0, m - 2, out=j)
        wx = np.clip(np.subtract(x, i, out=x), 0.0, 1.0, out=x)
        wj = np.clip(np.subtract(xi, j, out=xi), 0.0, 1.0, out=xi)
        i *= m
        k = np.add(i, j, out=i).astype(np.intp)
        ux = np.subtract(1.0, wx, out=i)
        uj = np.subtract(1.0, wj, out=j)
        # c00 ux uj + c10 wx uj + c01 ux wj + c11 wx wj, summed left to right; every k
        # lies in [0, (n - 2) m + m - 2], so mode="clip" only skips the bounds check
        corners[0].take(k, out=out, mode="clip")
        out *= ux
        out *= uj
        term = np.empty_like(out)
        for corner, u, w in ((corners[1], wx, uj), (corners[2], ux, wj), (corners[3], wx, wj)):
            corner.take(k, out=term, mode="clip")
            term *= u
            term *= w
            out += term
        np.copyto(out, 0.0, where=off)

    return gather


def field_evaluator(field: WignerField) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Bilinear interpolation on the field's grid, zero outside; ConfigurationError at nan."""
    gather = _bilinear(field)

    def evaluate(x, xi):
        x, xi = np.broadcast_arrays(x, xi)
        shape = x.shape
        # fresh float copies, at least 1-d so that gather can work on them in place
        x, xi = (np.array(c, dtype=float, ndmin=1) for c in (x, xi))
        reject_nan("field_evaluator", x, xi)
        out = np.empty(x.shape)
        gather(x, xi, out)
        return out.reshape(shape)

    return evaluate


def _check_backward_range(coeffs: FlowCoefficients, x, xi) -> None:
    """ConfigurationError at a nan point, NumericalConsistencyError unless the image is finite."""
    # rounding is monotone, so a finite |c1| max|x| + |c2| max|xi| + |c3| bounds every image
    x_max, xi_max = (float(np.max(np.abs(v), initial=0.0)) for v in (x, xi))
    if math.isnan(x_max + xi_max):
        raise ConfigurationError("flow map query point is nan")
    for c1, c2, c3 in ((coeffs.a1, coeffs.a2, coeffs.a3), (coeffs.b1, coeffs.b2, coeffs.b3)):
        c1, c2, c3 = (float(np.max(np.abs(c))) for c in (c1, c2, c3))
        if not math.isfinite(c1 * x_max + c2 * xi_max + c3):
            raise NumericalConsistencyError(
                f"flow map at t = {float(np.max(coeffs.t)):.6g} exceeds the double range"
            )


def _evaluate_transported(initial: InitialField, coeffs: FlowCoefficients, x_nodes, xi_nodes):
    """initial (a gridded field or an evaluator) at the backward images of the mesh, filled
    in row chunks of bounded scratch."""
    x = np.asarray(x_nodes, float)[:, None]
    xi = np.asarray(xi_nodes, float)[None, :]
    _check_backward_range(coeffs, x, xi)
    out = np.empty((x.shape[0], xi.shape[1]))
    gather = _bilinear(initial) if isinstance(initial, WignerField) else None
    # backward_map's sums a1 x + a2 xi + a3, in its order, with the xi terms formed once
    a2_xi, b2_xi = coeffs.a2 * xi, coeffs.b2 * xi
    # scratch per cell: the backward image and the bilinear gather's temporaries take about
    # 50 bytes (65 with the last chunk's image); the rest is room for a closed-form evaluator
    for rows in _row_chunks(out.shape[0], 128 * out.shape[1]):
        big_x = np.add(coeffs.a1 * x[rows], a2_xi)
        big_x += coeffs.a3
        big_xi = np.add(coeffs.b1 * x[rows], b2_xi)
        big_xi += coeffs.b3
        if gather is None:
            out[rows] = initial(big_x, big_xi)
        else:
            gather(big_x, big_xi, out[rows])
    return out


def propagate_field(
    initial: InitialField, params: OscillatorParams, t: float, ps_grid: PhaseSpaceGrid
) -> WignerField:
    """Transport: W(x, xi, t) = W0(X(x, xi, t), Xi(x, xi, t)) sampled on the grid.

    ``initial`` is a closed-form evaluator (x, xi) -> W0 defined on all of
    R^2, or a gridded field used through bilinear interpolation with zero
    extension (interpolation error is then the caller's responsibility).
    Either is evaluated in cache-sized row chunks, so the peak memory is
    about one output field.
    """
    coeffs = flow_coefficients(params, t)
    values = _evaluate_transported(initial, coeffs, ps_grid.x_grid.nodes(), ps_grid.xi_grid.nodes())
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
    check_params("> 0", dt=dt, dx=dx, dxi=dxi)
    xs, xis = ps_grid.x_grid.nodes(), ps_grid.xi_grid.nodes()
    coeffs = flow_coefficients(params, np.array([t - dt, t, t + dt]))
    before, now, after = (FlowCoefficients(*fields) for fields in zip(*vars(coeffs).values()))

    samples = ((after, xs, xis), (before, xs, xis), (now, xs + dx, xis), (now, xs - dx, xis),
               (now, xs, xis + dxi), (now, xs, xis - dxi))
    w_tp, w_tm, w_xp, w_xm, w_kp, w_km = (_evaluate_transported(initial, *s) for s in samples)

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
    constraint (rB), both evaluated at one phase-space point; raises past the double range."""
    x, xi = point
    dx, dxi = steps
    check_params(E=E, x=x, xi=xi)
    check_params("> 0", dx=dx, dxi=dxi)
    h = state.hbar
    stencil = ((x, xi), (x + dx, xi), (x - dx, xi), (x, xi + dxi), (x, xi - dxi))
    w0, w_xp, w_xm, w_kp, w_km = (float(state.wigner(*p)) for p in stencil)
    wxx = (w_xp - 2.0 * w0 + w_xm) / dx**2
    wkk = (w_kp - 2.0 * w0 + w_km) / dxi**2
    wx = (w_xp - w_xm) / (2.0 * dx)
    wk = (w_kp - w_km) / (2.0 * dxi)

    v = state.omega**2 * x * x
    v2 = 2.0 * state.omega**2
    r_a = E * w0 - (-(h * h / 4.0) * wxx + (xi * xi + v) * w0 - (h * h / 8.0) * v2 * wkk)
    r_b = -2.0 * xi * wx + 2.0 * state.omega**2 * x * wk
    return finite_result("the stationary residual", (float(r_a), float(r_b)))


def delta_stationary_residual(
    gamma: float,
    hbar: float,
    point: tuple[float, float],
    fd_step: float = 2e-3,
) -> tuple[float, float]:
    """Residuals of the delta-potential stationary pair on the bound state; raises past the
    double range.  The nonlocal xi' integrals are exact: Int W(x, xi') e^{-2i x (xi' - xi)/hbar}
    dxi' = psi(0) conj psi(2x) e^{2i x xi/hbar} = kappa e^{-2 kappa |x|} e^{2i x xi/hbar}.
    x-derivatives use centred differences; the |x| kink at 0 is excluded (|x| > fd_step)."""
    state = DeltaBound(gamma, hbar)
    x, xi = point
    check_params(x=x, xi=xi)
    check_params("> 0", fd_step=fd_step)
    if abs(x) <= fd_step:
        raise ConfigurationError("evaluation point must avoid the kink at x = 0")

    w0, w_p, w_m = (state.wigner(x + d, xi) for d in (0.0, fd_step, -fd_step))  # NumPy scalars
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        kappa, phase = state.kappa, 2.0 * x * xi / hbar  # Python floats saturate at inf
        nonlocal_term = gamma * kappa * np.exp(-2.0 * kappa * abs(x)) / (math.pi * hbar)
        wxx = (w_p - 2.0 * w0 + w_m) / (fd_step * fd_step)
        wx = (w_p - w_m) / (2.0 * fd_step)
        kinetic = -(hbar * hbar / 4.0) * wxx + xi * xi * w0
        r40 = state.energy * w0 - (kinetic + nonlocal_term * np.cos(phase))
        r41 = -2.0 * xi * wx + 2.0 / hbar * nonlocal_term * np.sin(phase)
    return finite_result("the delta-potential residual", (float(r40), float(r41)))

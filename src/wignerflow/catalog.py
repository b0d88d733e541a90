"""Analytic catalog: wavefunctions with exactly known Wigner transforms.

Each state exposes the wavefunction psi(x) and the closed-form transform
W(x, xi) of that same function, so the discrete transform of sampled psi can
be checked node-wise against the state's wigner method.  Removable
singularities (the box and soliton sine kernels, the xi -> 0 limit of the
bound-state form) are evaluated through exact sinc/x-over-sinh rewrites,
never by division.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigurationError, NumericalConsistencyError, check_counts, check_params
from .errors import finite_result, reject_nan
from .grids import Grid1D
from .transform import WaveSample, sample_state

_POLY_CAP = 60  # three-term recurrences stay in double-precision range


def _hermite(n: int, x):
    """Physicists' Hermite H_n by the three-term recurrence, unchecked."""
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h


def _laguerre(n: int, x):
    """Laguerre L_n by the three-term recurrence, unchecked."""
    l_prev = np.ones_like(x)
    if n == 0:
        return l_prev
    l = 1.0 - x
    for k in range(1, n):
        l, l_prev = ((2.0 * k + 1.0 - x) * l - k * l_prev) / (k + 1.0), l
    return l


def _checked(name: str, recurrence, n: int, x):
    """recurrence(n, x), raising at an order outside [0, _POLY_CAP], a nan x or a value past the
    double range; the states call the recurrence itself, as _closed_form reads that value 0."""
    check_counts(">= 0", f"<= {_POLY_CAP}", n=n)
    x = np.asarray(x, dtype=float)
    reject_nan(name, x)
    with np.errstate(over="ignore", invalid="ignore"):
        values = recurrence(n, x)
    return finite_result(f"{name} polynomial of order {n}", values)


def hermite_polynomial(n: int, x):
    """Physicists' Hermite H_n by the three-term recurrence; raises past the double range."""
    return _checked("Hermite", _hermite, n, x)


def laguerre_polynomial(n: int, x):
    """Laguerre L_n by the three-term recurrence; raises past the double range."""
    return _checked("Laguerre", _laguerre, n, x)


def _closed_form(formula):
    """psi or wigner under the catalog's one rule: the query points broadcast as float arrays,
    a nan point raises ConfigurationError, and a point where the arithmetic leaves the double
    range (inf, or nan from inf - inf, 0 * inf or cos(inf)) reads 0.  Every state decays there
    (positive definite Gaussian exponents, e^{-y} L_n(2y), e^{-2 kappa |x|}/(kappa^2 hbar^2 +
    xi^2), the sech-type soliton, the box compact in x with sin(z)/z in xi), so the true value
    is at or below the bottom of the double range.  Finite values keep their bits, and one sum
    (it propagates inf and nan) clears the common all-finite case."""

    @functools.wraps(formula)
    def evaluate(self, *points):
        points = [np.asarray(p, dtype=float) for p in points]
        reject_nan("catalog", *points)
        with np.errstate(over="ignore", invalid="ignore"):
            values = formula(self, *np.broadcast_arrays(*points))
        if not np.isfinite(values.sum()):
            values = np.asarray(values)  # a NumPy scalar as a 0-d array, an array as itself
            values[~np.isfinite(values)] = 0.0
        return values if values.ndim else values[()]  # a 0-d query gives a NumPy scalar

    return evaluate


def _sinc(z):
    """sin(z)/z with the removable singularity filled."""
    return np.sinc(np.asarray(z) / math.pi)


def _x_over_sinh(z):
    """z/sinh(z), by its series near 0; 0 where sinh overflows (|z| > ~710), nan at inf."""
    small = np.abs(z) < 1e-4
    z2 = z * z
    series = 1.0 - z2 / 6.0 + 7.0 * z2 * z2 / 360.0
    z = np.where(small, 1.0, z)
    return np.where(small, series, z / np.sinh(z))


@dataclass(frozen=True)
class Box:
    """Normalised characteristic function of [-R, R]."""

    R: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        check_params("> 0", R=self.R, hbar=self.hbar)

    @_closed_form
    def psi(self, x):
        return np.where(np.abs(x) <= self.R, 1.0 / math.sqrt(2.0 * self.R), 0.0).astype(complex)

    @_closed_form
    def wigner(self, x, xi):
        reach = np.maximum(self.R - np.abs(x), 0.0)  # 0 outside the box, and so is the value
        return reach / (math.pi * self.R * self.hbar) * _sinc(2.0 * xi * reach / self.hbar)


@dataclass(frozen=True)
class GaussGeneral:
    """exp(-((a1+i a2)x^2 + (b1+i b2)x + (c1+i c2))/2), the general Gaussian."""

    a1: float
    a2: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        check_params("> 0", a1=self.a1, hbar=self.hbar)  # a1 > 0: square integrable
        check_params(a2=self.a2, b1=self.b1, b2=self.b2, c1=self.c1, c2=self.c2)

    @_closed_form
    def psi(self, x):
        alpha = self.a1 + 1j * self.a2
        beta = self.b1 + 1j * self.b2
        gamma = self.c1 + 1j * self.c2
        return np.exp(-0.5 * (alpha * x * x + beta * x + gamma))

    @_closed_form
    def wigner(self, x, xi):
        # |psi(x)|^2 times a Gaussian in the local momentum u: the exponent's square completed
        a1, u = self.a1, self.a2 * x + xi / self.hbar + self.b2 / 2.0
        exponent = (a1 * x + self.b1) * x + self.c1 + u * u / a1
        return np.exp(-exponent) / (self.hbar * math.sqrt(math.pi * a1))


@dataclass(frozen=True)
class CoherentGaussian:
    """Minimum-uncertainty packet centred at (a, p0) with position variance hbar/2
    (gaussian.GaussianPacket, the initial state of the closed-form packet dynamics)."""

    a: float = 0.0
    p0: float = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        check_params(a=self.a, p0=self.p0)
        check_params("> 0", hbar=self.hbar)

    @_closed_form
    def psi(self, x):
        h = self.hbar
        return (
            (math.pi * h) ** -0.25
            * np.exp(-((x - self.a) ** 2) / (2.0 * h))
            * np.exp(1j * self.p0 * x / h)
        )

    @_closed_form
    def wigner(self, x, xi):
        h = self.hbar
        return np.exp(-((x - self.a) ** 2 + (xi - self.p0) ** 2) / h) / (math.pi * h)


@dataclass(frozen=True)
class FreeEvolvedGaussian:
    """(2/pi)^{1/4} e^{-x^2} evolved freely for time t (2m = 1 units)."""

    t: float = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        check_params(">= 0", t=self.t)
        check_params("> 0", hbar=self.hbar)

    @_closed_form
    def psi(self, x):
        z = complex(1.0, 4.0 * self.hbar * self.t)
        return (2.0 / math.pi) ** 0.25 / np.sqrt(z) * np.exp(-x * x / z)

    @_closed_form
    def wigner(self, x, xi):
        h, t = self.hbar, self.t
        return (
            np.exp(-0.5 * (xi / h) ** 2) * np.exp(-2.0 * (x - 2.0 * xi * t) ** 2)
            / (math.pi * h)
        )


@dataclass(frozen=True)
class DeltaBound:
    """Bound state of the attractive delta potential gamma*delta(x), gamma < 0."""

    gamma: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        check_params("< 0", gamma=self.gamma)
        check_params("> 0", hbar=self.hbar)

    @property
    def kappa(self) -> float:
        return abs(self.gamma) / (2.0 * self.hbar) / self.hbar  # float division saturates at inf

    @property
    def energy(self) -> float:
        kappa_hbar = self.gamma / (2.0 * self.hbar)
        return -kappa_hbar * kappa_hbar

    @_closed_form
    def psi(self, x):
        h, g = self.hbar, abs(self.gamma)  # sqrt(kappa) e^{-kappa |x|} read through |x|/hbar
        e = np.exp(-(np.abs(x) / h) * (g / (2.0 * h)))
        return (math.sqrt(g / 2.0) / h * e).astype(complex)

    @_closed_form
    def wigner(self, x, xi):
        # Derived by splitting the y integral at the cusp images y = +-2|x|/hbar;
        # this form reproduces the position marginal kappa*e^{-2 kappa |x|} exactly.
        # Read through kappa hbar = |gamma|/(2 hbar) and 2 kappa |x| = (|x|/hbar)(|gamma|/hbar),
        # so neither kappa^2 hbar^2 nor kappa leaves the range where W does not:
        # hbar kappa^2/(kappa^2 hbar^2 + xi^2) = 1/(hbar (1 + (xi/(kappa hbar))^2)).
        h, g = self.hbar, abs(self.gamma)
        ax = np.abs(x)
        phase = 2.0 * ax * xi / h
        decay = ax / h * (g / h)  # 2 kappa |x|
        # kappa*h*sin(phase)/xi = 2*kappa*|x| * sinc(phase): removable xi -> 0 limit.
        bracket = np.cos(phase) + decay * _sinc(phase)
        with np.errstate(divide="ignore"):  # xi/(kappa hbar) is inf (W = 0) where it underflows
            spread = 1.0 + (xi / (g / (2.0 * h))) ** 2
        return np.exp(-decay) / (math.pi * h * spread) * bracket


@dataclass(frozen=True)
class Soliton:
    """Stationary sech soliton of the focusing cubic Schroedinger equation, nu < 0."""

    nu: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        check_params("< 0", nu=self.nu)
        check_params("> 0", hbar=self.hbar)

    @property
    def width_rate(self) -> float:
        return -self.nu / (4.0 * self.hbar) / self.hbar  # float division saturates at inf or 0

    @_closed_form
    def psi(self, x):
        """Spatial profile; the global e^{i nu^2 t/(16 hbar^3)} phase is omitted."""
        amp = math.sqrt(-self.nu) / (math.sqrt(8.0) * self.hbar)
        # sech(z) = 2 e^{-|z|} / (1 + e^{-2|z|}), |z| = width_rate |x| read through |x|/hbar
        e = np.exp(-(np.abs(x) / self.hbar) * (-self.nu / 4.0) / self.hbar)
        return (amp * (2.0 * e / (1.0 + e * e))).astype(complex)

    @_closed_form
    def wigner(self, x, xi):
        h = self.hbar
        u = x / h * (self.nu / 2.0) / h  # -2 width_rate x, read through x/hbar
        w = 4.0 * math.pi * xi * h / self.nu
        # (1/h) sin(2 x xi/h) / (sinh u sinh w) rewritten as a product of
        # removable-singularity factors; 2 x xi / h = u w / pi.
        return _sinc(u * w / math.pi) * _x_over_sinh(u) * _x_over_sinh(w) / (math.pi * h)


@dataclass(frozen=True)
class HarmonicEigen:
    """n-th eigenstate of V(x) = omega^2 x^2 in 2m = 1 units; unnormalised unless the flag
    is set, when its transform (quadratic in psi) carries the squared norm."""

    n: int
    omega: float = 1.0
    hbar: float = 1.0
    normalized: bool = False

    def __post_init__(self) -> None:
        check_params("> 0", omega=self.omega, hbar=self.hbar)
        check_counts(">= 0", f"<= {_POLY_CAP}", n=self.n)

    def _norm_sq(self) -> float:
        hermite_norm_sq = float(2.0**self.n) * math.factorial(self.n) * math.sqrt(math.pi)
        return math.sqrt(self.hbar / self.omega) * hermite_norm_sq

    @_closed_form
    def psi(self, x):
        u = math.sqrt(self.omega / self.hbar) * x
        vals = _hermite(self.n, u) * np.exp(-0.5 * u * u)
        if self.normalized:
            vals = vals / math.sqrt(self._norm_sq())
        return vals.astype(complex)

    @_closed_form
    def wigner(self, x, xi):
        h, w = self.hbar, self.omega
        y = (xi * xi + w * w * x * x) / (h * w)
        scale = 1.0 if self.normalized else self._norm_sq()
        prefactor = scale * (-1.0) ** self.n / (math.pi * h)  # of e^{-y} L_n(2y)
        return prefactor * np.exp(-y) * _laguerre(self.n, 2.0 * y)

    def energy(self) -> float:
        return harmonic_energy(self.n, self.omega, self.hbar)


def Hermite(n: int, hbar: float = 1.0, normalized: bool = False) -> HarmonicEigen:
    """H_n(x) e^{-x^2/2}, unnormalised unless the flag is set: the oscillator level of
    omega = hbar, whose psi this is bit for bit (its scale sqrt(omega/hbar) is exactly 1)."""
    return HarmonicEigen(n, omega=hbar, hbar=hbar, normalized=normalized)


AnalyticState = Union[
    Box,
    GaussGeneral,
    CoherentGaussian,
    FreeEvolvedGaussian,
    DeltaBound,
    Soliton,
    HarmonicEigen,
]


def hudson_positivity(state: AnalyticState) -> bool:
    """True iff the state is Gaussian, i.e. its transform is non-negative."""
    if isinstance(state, (GaussGeneral, CoherentGaussian, FreeEvolvedGaussian)):
        return True
    if isinstance(state, HarmonicEigen):
        return state.n == 0  # the ground state is itself a Gaussian
    return False


def harmonic_energy(n: int, omega: float, hbar: float) -> float:
    """Eigenvalue (2n+1) * omega * hbar of the 2m = 1 oscillator; raises past the double range."""
    check_counts(">= 0", n=n)
    check_params(">= 0", omega=omega)
    check_params("> 0", hbar=hbar)
    try:
        level = float(2 * int(n) + 1)  # the same bits as the int, which the product would convert
    except OverflowError:  # an int past the floats
        level = math.inf
    return finite_result("the oscillator energy", level * omega * hbar)


def sample_catalog_state(state: AnalyticState, grid: Grid1D) -> WaveSample:
    return sample_state(state.psi, grid, state.hbar)


def normalize_sample(wave: WaveSample) -> WaveSample:
    """Divide by the numerically computed (rectangle-rule) norm."""
    nrm = math.sqrt(wave.norm_sq())
    if nrm == 0.0:
        raise ConfigurationError("cannot normalize the zero wavefunction")
    return WaveSample(wave.grid, wave.values / nrm, wave.hbar)


def default_grid(state: AnalyticState) -> Grid1D:
    """Documented sampling grid per catalog state.

    Sized so the boundary values sit below DECAY_TOL relative to the peak and
    the step resolves the state for the marginal/mass/overlap checks.  The box grid
    places the discontinuities exactly half-way between nodes (step 2R/1901)
    so the truncated inner sum represents the edge without bias.  Raises
    NumericalConsistencyError where another state's scale leaves the double range.
    """
    h, centre = state.hbar, 0.0
    if isinstance(state, Box):
        step = 2.0 * state.R / 1901.0
        return Grid1D(-1000.0 * step, step, 2001)
    if isinstance(state, CoherentGaussian):
        centre, hw, count = state.a, 8.5 * math.sqrt(h), 1025
    elif isinstance(state, GaussGeneral):
        centre, hw, count = -state.b1 / (2.0 * state.a1), 8.5 / math.sqrt(state.a1), 1025
    elif isinstance(state, FreeEvolvedGaussian):
        hw, count = 5.5 * math.hypot(1.0, 4.0 * h * state.t), 1025  # 5.5 |1 + 4i hbar t|
    elif isinstance(state, DeltaBound):  # 28 / kappa, identity-grade (tests: pointwise grid)
        hw, count = 56.0 * h / -state.gamma * h, 4097
    elif isinstance(state, Soliton):  # 28.5 / width_rate
        hw, count = 114.0 * h / -state.nu * h, 1187
    elif isinstance(state, HarmonicEigen):
        hw, count = 12.0 * math.sqrt(h / state.omega), 1281
    else:
        raise ConfigurationError(f"unknown catalog state {state!r}")
    x_min = centre - hw
    step = (centre + hw - x_min) / (count - 1)  # the bits of Grid1D.from_span
    if not 0.0 < step < math.inf:  # nan where the centre or the span is inf
        raise NumericalConsistencyError(f"the sampling grid of {state!r} leaves the double range")
    return Grid1D(x_min, step, count)


# ---------------------------------------------------------------------------
# Box-state L1 divergence diagnostic
# ---------------------------------------------------------------------------

_DIGAMMA_SERIES = (0.0, 1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)  # B_2n/(2n), n > 0


def _digamma(z):
    """psi(z) for z > 0, elementwise: psi(z + 8) - Sum_{j<8} 1/(z + j), with psi(w) = ln w -
    1/(2w) - Sum_{n<=6} B_2n/(2n w^2n) written in powers of v = 1/w, so nothing overflows."""
    v = 1.0 / (z + 8.0)
    series = sum(b * (v * v) ** n for n, b in enumerate(_DIGAMMA_SERIES))
    return -np.log(v) - v / 2.0 - series - sum(1.0 / (z + j) for j in range(8))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """24-node Gauss-Legendre rule on [0, 1] from the Legendre Jacobi matrix (Golub-Welsch)."""
    nodes, v = np.linalg.eigh(np.diag([k / math.sqrt(4 * k * k - 1) for k in range(1, 24)], -1))
    return (1.0 + nodes) / 2.0, v[0] ** 2  # the weights, 2 v_0^2 on [-1, 1]


def box_l1_growth(R: float, hbar: float, Xi: float) -> float:
    """Truncated L1 mass of the box-state transform over |x|<=R, |xi|<=Xi; grows like log Xi.

    It is (2/pi) Int_0^U F(u)/u^2 du, U = K pi + r = 2 Xi R/hbar, F(u) = Int_0^u |sin|, and by
    parts (2/pi) [S(U) - F(U)/U], where S(U) = Int_0^U |sin u|/u du sums its K whole half
    periods through the digamma function: (1/pi) Int_0^pi sin s [psi(K + s/pi) - psi(s/pi)] ds.
    Every integrand is entire, so one fixed Gauss-Legendre rule is exact to rounding at any Xi."""
    check_params("> 0", R=R, hbar=hbar)
    check_params("> 1", Xi=Xi)

    upper = finite_result("the cutoff 2 Xi R / hbar", 2.0 * Xi * R / hbar)
    K, r = divmod(upper, math.pi)
    nodes, weights = _gauss_legendre()
    t = r * nodes
    if K == 0.0:  # U < pi: F(u) = 1 - cos u, and every term is U times a sinc
        return 2.0 / math.pi * r * (weights @ _sinc(t) - _sinc(r / 2.0) ** 2 / 2.0)
    whole = weights @ (np.sin(math.pi * nodes) * (_digamma(K + nodes) - _digamma(nodes)))
    part = r * (weights @ (np.sin(t) / (t + K * math.pi)))
    return 2.0 / math.pi * (whole + part - (2.0 * K + 2.0 * math.sin(r / 2.0) ** 2) / upper)

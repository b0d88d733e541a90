"""Analytic catalog: wavefunctions with exactly known Wigner transforms.

Each state exposes the wavefunction psi(x) and the closed-form transform
W(x, xi) of that same function, so the discrete transform of sampled psi can
be checked node-wise against the state's wigner method.  Removable
singularities (the box and soliton sine kernels, the xi -> 0 limit of the
bound-state form) are evaluated through exact sinc/x-over-sinh rewrites,
never by division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigurationError
from .grids import Grid1D
from .transform import WaveSample, sample_state

_POLY_CAP = 60  # three-term recurrences stay in double-precision range


def hermite_polynomial(n: int, x):
    """Physicists' Hermite H_n by the three-term recurrence."""
    if not 0 <= n <= _POLY_CAP:
        raise ConfigurationError(f"Hermite order must be in [0, {_POLY_CAP}], got {n}")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h


def laguerre_polynomial(n: int, x):
    """Laguerre L_n by the three-term recurrence."""
    if not 0 <= n <= _POLY_CAP:
        raise ConfigurationError(f"Laguerre order must be in [0, {_POLY_CAP}], got {n}")
    x = np.asarray(x, dtype=float)
    l_prev = np.ones_like(x)
    if n == 0:
        return l_prev
    l = 1.0 - x
    for k in range(1, n):
        l, l_prev = ((2.0 * k + 1.0 - x) * l - k * l_prev) / (k + 1.0), l
    return l


def _sinc(z):
    """sin(z)/z with the removable singularity filled."""
    return np.sinc(np.asarray(z) / math.pi)


def _x_over_sinh(z):
    """z/sinh(z), stable at 0 and for large |z| (underflows to 0)."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    capped = np.clip(np.where(small, 1.0, z), -700.0, 700.0)
    z2 = z * z
    series = 1.0 - z2 / 6.0 + 7.0 * z2 * z2 / 360.0
    with np.errstate(over="ignore"):
        direct = np.where(small, 1.0, capped / np.sinh(capped))
    return np.where(small, series, direct)


def _sech(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)


def _check_hbar(hbar: float) -> None:
    if hbar <= 0:
        raise ConfigurationError(f"hbar must be positive, got {hbar}")


@dataclass(frozen=True)
class Box:
    """Normalised characteristic function of [-R, R]."""

    R: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)
        if self.R <= 0:
            raise ConfigurationError(f"box half-width must be positive, got {self.R}")

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= self.R, 1.0 / math.sqrt(2.0 * self.R), 0.0).astype(complex)

    def wigner(self, x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        reach = self.R - np.abs(x)
        inside = reach >= 0.0
        reach = np.where(inside, reach, 0.0)
        vals = reach / (math.pi * self.R * self.hbar) * _sinc(2.0 * xi * reach / self.hbar)
        return np.where(inside, vals, 0.0)


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
        _check_hbar(self.hbar)
        if self.a1 <= 0:
            raise ConfigurationError(f"need a1 > 0 for square integrability, got {self.a1}")

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        alpha = self.a1 + 1j * self.a2
        beta = self.b1 + 1j * self.b2
        gamma = self.c1 + 1j * self.c2
        return np.exp(-0.5 * (alpha * x * x + beta * x + gamma))

    def wigner(self, x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        h = self.hbar
        a1, a2, b1, b2, c1 = self.a1, self.a2, self.b1, self.b2, self.c1
        num = (
            4.0 * h * h * (a1 * a1 + a2 * a2) * x * x
            + 8.0 * a2 * h * x * xi
            + 4.0 * h * h * (a1 * b1 + a2 * b2) * x
            + b2 * b2 * h * h
            + 4.0 * a1 * c1 * h * h
            + 4.0 * b2 * h * xi
            + 4.0 * xi * xi
        )
        return np.exp(-num / (4.0 * a1 * h * h)) / (h * math.sqrt(math.pi * a1))


@dataclass(frozen=True)
class CoherentGaussian:
    """Minimum-uncertainty packet centred at (a, p0) with position variance hbar/2."""

    a: float = 0.0
    p0: float = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        h = self.hbar
        return (
            (math.pi * h) ** -0.25
            * np.exp(-((x - self.a) ** 2) / (2.0 * h))
            * np.exp(1j * self.p0 * x / h)
        )

    def wigner(self, x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        h = self.hbar
        return np.exp(-((x - self.a) ** 2 + (xi - self.p0) ** 2) / h) / (math.pi * h)


def _hermite_norm_sq(n: int) -> float:
    return float(2.0**n) * math.factorial(n) * math.sqrt(math.pi)


@dataclass(frozen=True)
class Hermite:
    """H_n(x) e^{-x^2/2}; unnormalised unless the flag is set.

    The transform is the Laguerre form (-1)^n/(pi hbar) e^{-(x^2+xi^2/hbar^2)}
    L_n(2x^2 + 2xi^2/hbar^2), which carries unit mass and therefore belongs to
    the normalised state; the unnormalised state's transform is that form
    scaled by ||psi||^2 = 2^n n! sqrt(pi) (the transform is quadratic).
    """

    n: int
    hbar: float = 1.0
    normalized: bool = False

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)
        if not 0 <= self.n <= _POLY_CAP:
            raise ConfigurationError(f"Hermite order must be in [0, {_POLY_CAP}], got {self.n}")

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        vals = hermite_polynomial(self.n, x) * np.exp(-0.5 * x * x)
        if self.normalized:
            vals = vals / math.sqrt(_hermite_norm_sq(self.n))
        return vals.astype(complex)

    def wigner(self, x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        h = self.hbar
        r2 = x * x + (xi / h) ** 2
        scale = 1.0 if self.normalized else _hermite_norm_sq(self.n)
        return scale * (-1.0) ** self.n / (math.pi * h) * np.exp(-r2) * laguerre_polynomial(
            self.n, 2.0 * r2
        )


@dataclass(frozen=True)
class FreeEvolvedGaussian:
    """(2/pi)^{1/4} e^{-x^2} evolved freely for time t (2m = 1 units)."""

    t: float = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)
        if self.t < 0:
            raise ConfigurationError(f"evolution time must be non-negative, got {self.t}")

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        h, t = self.hbar, self.t
        denom = 1.0 + 16.0 * h * h * t * t
        return (
            (2.0 / math.pi) ** 0.25
            * np.sqrt((1.0 - 4j * h * t) / denom)
            * np.exp(-x * x * (1.0 - 4j * h * t) / denom)
        )

    def wigner(self, x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        h, t = self.hbar, self.t
        return (
            np.exp(-xi * xi / (2.0 * h * h)) * np.exp(-2.0 * (x - 2.0 * xi * t) ** 2)
            / (math.pi * h)
        )


@dataclass(frozen=True)
class DeltaBound:
    """Bound state of the attractive delta potential gamma*delta(x), gamma < 0."""

    gamma: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)
        if self.gamma >= 0:
            raise ConfigurationError(
                f"the delta potential binds only for gamma < 0, got {self.gamma}"
            )

    @property
    def kappa(self) -> float:
        return abs(self.gamma) / (2.0 * self.hbar**2)

    @property
    def energy(self) -> float:
        return -self.gamma**2 / (4.0 * self.hbar**2)

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        k = self.kappa
        return (math.sqrt(k) * np.exp(-k * np.abs(x))).astype(complex)

    def wigner(self, x, xi):
        # Derived by splitting the y integral at the cusp images y = +-2|x|/hbar;
        # this form reproduces the position marginal kappa*e^{-2 kappa |x|} exactly.
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        h, k = self.hbar, self.kappa
        ax = np.abs(x)
        phase = 2.0 * ax * xi / h
        # kappa*h*sin(phase)/xi = 2*kappa*|x| * sinc(phase): removable xi -> 0 limit.
        bracket = np.cos(phase) + 2.0 * k * ax * _sinc(phase)
        return h * k * k * np.exp(-2.0 * k * ax) / (math.pi * (k * k * h * h + xi * xi)) * bracket


@dataclass(frozen=True)
class Soliton:
    """Stationary sech soliton of the focusing cubic Schroedinger equation, nu < 0."""

    nu: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)
        if self.nu >= 0:
            raise ConfigurationError(f"the soliton needs attractive nu < 0, got {self.nu}")

    @property
    def width_rate(self) -> float:
        return -self.nu / (4.0 * self.hbar**2)

    def psi(self, x):
        """Spatial profile; the global e^{i nu^2 t/(16 hbar^3)} phase is omitted."""
        x = np.asarray(x, dtype=float)
        amp = math.sqrt(-self.nu) / (math.sqrt(8.0) * self.hbar)
        return (amp * _sech(self.width_rate * x)).astype(complex)

    def wigner(self, x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        h = self.hbar
        u = self.nu * x / (2.0 * h * h)
        w = 4.0 * math.pi * xi * h / self.nu
        # (1/h) sin(2 x xi/h) / (sinh u sinh w) rewritten as a product of
        # removable-singularity factors; 2 x xi / h = u w / pi.
        return _sinc(u * w / math.pi) * _x_over_sinh(u) * _x_over_sinh(w) / (math.pi * h)


@dataclass(frozen=True)
class HarmonicEigen:
    """n-th eigenstate of V(x) = omega^2 x^2 in 2m = 1 units."""

    n: int
    omega: float = 1.0
    hbar: float = 1.0
    normalized: bool = False

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)
        if self.omega <= 0:
            raise ConfigurationError(f"omega must be positive, got {self.omega}")
        if not 0 <= self.n <= _POLY_CAP:
            raise ConfigurationError(f"eigenstate order must be in [0, {_POLY_CAP}], got {self.n}")

    def _norm_sq(self) -> float:
        return math.sqrt(self.hbar / self.omega) * _hermite_norm_sq(self.n)

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        u = math.sqrt(self.omega / self.hbar) * x
        vals = hermite_polynomial(self.n, u) * np.exp(-0.5 * u * u)
        if self.normalized:
            vals = vals / math.sqrt(self._norm_sq())
        return vals.astype(complex)

    def wigner(self, x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        h, w = self.hbar, self.omega
        y = (xi * xi + w * w * x * x) / (h * w)
        scale = 1.0 if self.normalized else self._norm_sq()
        return scale * (-1.0) ** self.n / (math.pi * h) * np.exp(-y) * laguerre_polynomial(
            self.n, 2.0 * y
        )

    def energy(self) -> float:
        return harmonic_energy(self.n, self.omega, self.hbar)


AnalyticState = Union[
    Box,
    GaussGeneral,
    CoherentGaussian,
    Hermite,
    FreeEvolvedGaussian,
    DeltaBound,
    Soliton,
    HarmonicEigen,
]


def hudson_positivity(state: AnalyticState) -> bool:
    """True iff the state is Gaussian, i.e. its transform is non-negative."""
    if isinstance(state, (GaussGeneral, CoherentGaussian, FreeEvolvedGaussian)):
        return True
    if isinstance(state, (Hermite, HarmonicEigen)):
        return state.n == 0  # the ground state is itself a Gaussian
    return False


def harmonic_energy(n: int, omega: float, hbar: float) -> float:
    """Eigenvalue (2n+1) * omega * hbar of the 2m = 1 oscillator."""
    if n < 0 or int(n) != n:
        raise ConfigurationError(f"quantum number must be a non-negative integer, got {n}")
    if omega < 0 or hbar <= 0:
        raise ConfigurationError("need omega >= 0 and hbar > 0")
    return (2 * n + 1) * omega * hbar


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
    places the discontinuities exactly half-way between nodes (step 2R/1401)
    so the truncated inner sum represents the edge without bias.
    """
    h = state.hbar
    if isinstance(state, Box):
        step = 2.0 * state.R / 1901.0
        return Grid1D(-1000.0 * step, step, 2001)
    if isinstance(state, CoherentGaussian):
        hw = 8.5 * math.sqrt(h)
        return Grid1D.from_span(state.a - hw, state.a + hw, 1025)
    if isinstance(state, GaussGeneral):
        mu = -state.b1 / (2.0 * state.a1)
        hw = 8.5 / math.sqrt(state.a1)
        return Grid1D.from_span(mu - hw, mu + hw, 1025)
    if isinstance(state, Hermite):
        return Grid1D.symmetric(13.0, 1281)  # n-independent so eigenstates share a grid
    if isinstance(state, FreeEvolvedGaussian):
        hw = 5.5 * math.sqrt(1.0 + 16.0 * h * h * state.t * state.t)
        return Grid1D.symmetric(hw, 1025)
    if isinstance(state, DeltaBound):
        return Grid1D.symmetric(28.0 / state.kappa, 4097)  # identity-grade; see tests for the pointwise grid
    if isinstance(state, Soliton):
        return Grid1D.symmetric(28.5 / state.width_rate, 1187)
    if isinstance(state, HarmonicEigen):
        return Grid1D.symmetric(12.0 * math.sqrt(h / state.omega), 1281)
    raise ConfigurationError(f"unknown catalog state {state!r}")


# ---------------------------------------------------------------------------
# Box-state L1 divergence diagnostic
# ---------------------------------------------------------------------------

def _abs_sin_primitive(t: float) -> float:
    """Integral of |sin| from 0 to t."""
    k, r = divmod(t, math.pi)
    return 2.0 * k + 1.0 - math.cos(r)


def _simpson_to_tol(f, a: float, b: float, rel_tol: float = 1e-11) -> float:
    """Composite Simpson with interval doubling until the Richardson estimate converges."""
    m = 8
    prev = None
    for _ in range(16):
        xs = np.linspace(a, b, 2 * m + 1)
        ys = f(xs)
        h = (b - a) / (2 * m)
        val = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())
        if prev is not None and abs(val - prev) <= rel_tol * max(1.0, abs(val)) * 15.0:
            return val
        prev = val
        m *= 2
    return val


def box_l1_growth(R: float, hbar: float, Xi: float) -> float:
    """Truncated L1 mass of the box-state transform over |x|<=R, |xi|<=Xi.

    The x-integral of |W| is analytic (running integral of |sin|), leaving a
    1-D xi quadrature done piecewise between the kinks of that primitive.
    Grows like log(Xi); the rectangle-window mass diverges in the limit.
    """
    if R <= 0 or hbar <= 0:
        raise ConfigurationError("need R > 0 and hbar > 0")
    if Xi <= 1.0:
        raise ConfigurationError(f"the xi cutoff must exceed 1, got {Xi}")

    upper = 2.0 * Xi * R / hbar

    def integrand(u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        small = u < 1e-6
        out[small] = 0.5 - u[small] ** 2 / 24.0
        rest = u[~small]
        prim = np.vectorize(_abs_sin_primitive)(rest) if rest.size else rest
        out[~small] = prim / (rest * rest)
        return out

    edges = [0.0] + [k * math.pi for k in range(1, int(upper / math.pi) + 1)] + [upper]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a > 1e-15:
            total += _simpson_to_tol(integrand, a, b)
    return 2.0 / math.pi * total

"""Uniform 1-D grids and rectangular phase-space grids."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _MAX_COUNT, ConfigurationError, check_counts, check_params

_REL_TOL = 1e-12


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid x_k = x_min + k*step, k = 0..count-1."""

    x_min: float
    step: float
    count: int

    def __post_init__(self) -> None:
        check_params(x_min=self.x_min)
        check_params("> 0", step=self.step)
        check_counts(">= 2", _MAX_COUNT, count=self.count)

    @property
    def x_max(self) -> float:
        return self.x_min + (self.count - 1) * self.step

    def nodes(self) -> np.ndarray:
        return self.x_min + self.step * np.arange(self.count)

    @classmethod
    def from_span(cls, x_min: float, x_max: float, count: int) -> "Grid1D":
        check_counts(">= 2", _MAX_COUNT, count=count)
        if not x_max > x_min:
            raise ConfigurationError(f"need x_max > x_min, got [{x_min}, {x_max}]")
        return cls(x_min, (x_max - x_min) / (count - 1), count)

    @classmethod
    def symmetric(cls, half_width: float, count: int) -> "Grid1D":
        """Grid symmetric about 0 spanning [-half_width, half_width]."""
        return cls.from_span(-half_width, half_width, count)

    def close_to(self, other: "Grid1D") -> bool:
        scale = max(abs(self.x_min), abs(self.x_max), self.step)
        return (
            self.count == other.count
            and abs(self.x_min - other.x_min) <= _REL_TOL * scale
            and abs(self.step - other.step) <= _REL_TOL * scale
        )


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular (x, xi) grid; the xi grid must be symmetric about 0."""

    x_grid: Grid1D
    xi_grid: Grid1D

    def __post_init__(self) -> None:
        g = self.xi_grid
        target = -(g.count - 1) * g.step / 2.0
        if abs(g.x_min - target) > 1e-9 * max(1.0, abs(target)):
            raise ConfigurationError(
                f"xi grid must be symmetric about 0: expected xi_min {target}, got {g.x_min}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x_grid.count, self.xi_grid.count)


def symmetric_xi_grid(xi_max: float, count: int) -> Grid1D:
    """xi grid with an odd node count centred exactly on 0."""
    check_counts(">= 3", _MAX_COUNT, count=count)
    if count % 2 == 0:
        raise ConfigurationError(f"symmetric xi grid needs an odd node count, got {count}")
    return Grid1D.symmetric(xi_max, count)


def fast_odd_length(minimum: int) -> int:
    """Smallest odd 7-smooth integer >= minimum (an FFT-friendly length)."""
    n = minimum if minimum % 2 == 1 else minimum + 1
    while True:
        k = n
        for p in (3, 5, 7):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 2


def natural_xi_grid(x_grid: Grid1D, hbar: float, count: int | None = None) -> Grid1D:
    """Conjugate frequency grid of the discrete transform on ``x_grid``.

    The transform's inner sum runs over y_j = j*(2*step/hbar) for
    |j| <= count-1; any odd frequency count M >= 2*count-1 with spacing
    pi*hbar/(M*step) makes the complex exponentials an exact orthogonal
    family over the (zero-padded) lattice, so the xi-sum of the field
    telescopes exactly to |psi(x)|^2 and the inverse transform is exact.
    The default count is the smallest FFT-friendly such M.
    """
    check_params("> 0", hbar=hbar)
    minimum = 2 * x_grid.count - 1
    if count is None:
        count = fast_odd_length(minimum)
    check_counts(f">= {minimum}", _MAX_COUNT, count=count)
    if count % 2 == 0:
        raise ConfigurationError(f"natural xi grid needs an odd count, got {count}")
    step = math.pi * hbar / (count * x_grid.step)
    return Grid1D(-(count - 1) // 2 * step, step, count)


def is_natural_xi_grid(x_grid: Grid1D, hbar: float, xi_grid: Grid1D) -> bool:
    m = xi_grid.count
    if m % 2 == 0 or m < 2 * x_grid.count - 1:
        return False
    return xi_grid.close_to(natural_xi_grid(x_grid, hbar, count=m))


def natural_grid(x_grid: Grid1D, hbar: float, count: int | None = None) -> PhaseSpaceGrid:
    return PhaseSpaceGrid(x_grid, natural_xi_grid(x_grid, hbar, count))

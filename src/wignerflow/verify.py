"""Built-in invariant suite behind the CLI verify command.

Runs the transform identities on a compact catalog and reports one row per
check: (check, state, residual, tolerance, status).
"""

from __future__ import annotations

import math

import numpy as np

from . import tolerances as tol
from .catalog import (
    Box,
    CoherentGaussian,
    HarmonicEigen,
    Hermite,
    default_grid,
    hudson_positivity,
    normalize_sample,
    sample_catalog_state,
)
from .grids import Grid1D, natural_grid
from .transform import (
    WaveSample,
    invert_wigner,
    momentum_marginal,
    overlap_identity,
    position_marginal,
    sup_norm_bound_slack,
    total_mass,
    wigner_transform,
)


def _suite_states():
    # (label, state, grid or None for the default, has definite parity)
    return [
        ("coherent(0.4;-0.7)", CoherentGaussian(0.4, -0.7, 1.0),
         Grid1D.symmetric(9.5, 513), False),
        ("hermite(1)", Hermite(1, 1.0, normalized=True), Grid1D.symmetric(10.0, 641), True),
        ("harmonic_eigen(2;0.7)", HarmonicEigen(2, 0.7, 1.0, normalized=True),
         Grid1D.symmetric(12.0, 641), True),
        ("box(1;hbar=2)", Box(1.0, 2.0), None, True),
    ]


def _momentum_oracle(wave: WaveSample, count: int) -> np.ndarray:
    """(2 pi / hbar) |psihat(xi/hbar)|^2, 1/(2 pi) transform convention, on the natural xi grid
    of M = `count` nodes.  There dxi dx / hbar = pi/M, so with c = (M - 1)/2 the kernel
    e^{-i xi_l x_k/hbar} is e^{-2 pi i l k/(2M)} e^{i pi c k/M} times a phase in l alone, which
    |.|^2 drops: one FFT of length 2M."""
    c, k = (count - 1) // 2, np.arange(wave.grid.count)
    ft = np.fft.fft(wave.values * np.exp(1j * math.pi / count * (c * k % (2 * count))), 2 * count)
    return 2.0 * math.pi / wave.hbar * np.abs(wave.grid.step / (2.0 * math.pi) * ft[:count]) ** 2


def run_invariant_suite() -> list[tuple]:
    rows: list[tuple] = []

    def record(check: str, state: str, residual: float, tolerance: float) -> None:
        status = "pass" if residual <= tolerance else "fail"
        rows.append((check, state, float(residual), float(tolerance), status))

    for label, state, grid, has_parity in _suite_states():
        if grid is None:
            grid = default_grid(state)
        wave = normalize_sample(sample_catalog_state(state, grid))
        ps = natural_grid(grid, state.hbar)

        field = wigner_transform(wave, ps)
        marg = position_marginal(field)
        record("marginal_position", label,
               float(np.max(np.abs(marg - np.abs(wave.values) ** 2))), tol.MARGINAL_TOL)
        record("marginal_momentum", label,
               float(np.max(np.abs(momentum_marginal(field)
                                   - _momentum_oracle(wave, ps.xi_grid.count)))),
               tol.MARGINAL_TOL)
        record("mass_identity", label, abs(total_mass(field) - 1.0), tol.MASS_TOL)
        record("overlap_identity", label,
               abs(overlap_identity(field, field) - wave.norm_sq() ** 2), tol.OVERLAP_TOL)
        record("sup_norm_bound", label, sup_norm_bound_slack(field), tol.FIELD_TOL)

        if has_parity:
            # even/odd input on a symmetric grid: W(-x, xi) = W(x, -xi)
            record("parity", label,
                   float(np.max(np.abs(field.values[::-1, :] - field.values[:, ::-1]))),
                   tol.PARITY_TOL)

        phase_wave = WaveSample(grid, np.exp(1j * 0.8) * wave.values, wave.hbar)
        phase_field = wigner_transform(phase_wave, ps)
        record("phase_invariance", label,
               float(np.max(np.abs(phase_field.values - field.values))), tol.IM_TOL)

        recovered = invert_wigner(field)
        fid = abs(grid.step * np.sum(np.conj(recovered.values) * wave.values)) / wave.norm_sq()
        record("inversion_fidelity", label, abs(1.0 - fid), tol.INVERSION_TOL)

        grid_min = float(np.min(field.values))
        if hudson_positivity(state):
            record("hudson_nonnegative", label, max(0.0, -grid_min), 1e-9)
        else:
            # a genuinely negative region must exist
            record("hudson_negative_region", label,
                   0.0 if grid_min < -1e-9 else 1.0, 0.5)

    # hbar scaling: same samples transformed at hbar and 1, matched frequencies
    state = CoherentGaussian(0.0, 0.0, 1.0)
    grid = Grid1D.symmetric(9.0, 257)
    values = state.psi(grid.nodes())
    hbar = 2.0
    f_h = wigner_transform(WaveSample(grid, values, hbar), natural_grid(grid, hbar))
    f_1 = wigner_transform(WaveSample(grid, values, 1.0), natural_grid(grid, 1.0))
    record("hbar_scaling", "coherent(0;0)",
           float(np.max(np.abs(f_h.values - f_1.values / hbar))), tol.SCALING_TOL)

    return rows

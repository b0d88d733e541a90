"""The invariant suite's momentum oracle: one FFT on the natural lattice against the direct sum
over the x samples that it replaced."""

import math

import numpy as np
import pytest

import wignerflow as wf
from wignerflow import verify
from wignerflow.transform import _row_chunks

SUITE = {label: (state, grid) for label, state, grid, _ in verify._suite_states()}


def _direct_sum_oracle(wave: wf.WaveSample, xi: np.ndarray) -> np.ndarray:
    """(2 pi / hbar) |psihat(xi/hbar)|^2 summed over the x samples, a few xi rows at a time."""
    xs = wave.grid.nodes()
    ft = np.empty(len(xi), dtype=complex)
    for sl in _row_chunks(len(xi), 32 * len(xs)):
        ft[sl] = wave.grid.step / (2.0 * math.pi) * (
            wave.values[None, :] * np.exp(-1j * np.outer(xi[sl] / wave.hbar, xs))
        ).sum(axis=1)
    return 2.0 * math.pi / wave.hbar * np.abs(ft) ** 2


@pytest.mark.parametrize("label", sorted(SUITE))
def test_momentum_oracle_is_the_direct_sum(label):
    state, grid = SUITE[label]
    grid = grid or wf.default_grid(state)
    wave = wf.normalize_sample(wf.sample_catalog_state(state, grid))
    xi = wf.natural_grid(grid, state.hbar).xi_grid
    oracle = verify._momentum_oracle(wave, xi.count)
    assert np.max(np.abs(oracle - _direct_sum_oracle(wave, xi.nodes()))) <= 1e-13 * oracle.max()

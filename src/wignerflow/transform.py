"""Discrete Wigner transform on uniform grids, and its exact identities.

Conventions (used throughout the package): units with 2m = 1, the transform

    W(x, xi) = (1/2pi) * Integral  e^{-i xi y} psi(x + hbar y/2) conj(psi(x - hbar y/2)) dy

discretised on y_j = j*(2*step/hbar) so that x +- hbar*y_j/2 lands exactly on
position-grid nodes (no interpolation), with psi extended by zero beyond the
grid and a rectangle rule in every quadrature.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import InitVar, dataclass

import numpy as np

from . import tolerances as tol
from .errors import (
    ConfigurationError,
    DomainTooSmallError,
    IndeterminateResultError,
    NotInvertibleError,
    NumericalConsistencyError,
    all_finite,
    check_params,
    finite_result,
)
from .grids import Grid1D, PhaseSpaceGrid, is_natural_xi_grid

_CHUNK_BYTES = 1 << 22  # scratch per chunk of rows; cache-sized chunks beat large ones
_PURITY_NODES = 14  # marginal nodes purity_separability_check samples at most
# threads that share a full-field row-chunk loop: two where the process may use two cores
_SHARES = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)


@dataclass(frozen=True)
class WaveSample:
    """Complex wavefunction sampled on a uniform position grid."""

    grid: Grid1D
    values: np.ndarray
    hbar: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.count,):
            raise ConfigurationError(
                f"wave has {v.shape} values for a grid of {self.grid.count} nodes"
            )
        check_params("> 0", hbar=self.hbar)
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ConfigurationError("wave values must be finite")

    def norm_sq(self) -> float:
        """Rectangle-rule squared L2 norm; raises past the double range."""
        with np.errstate(over="ignore"):
            norm_sq = self.grid.step * np.sum(np.abs(self.values) ** 2)
        return float(finite_result("the squared norm", norm_sq))


@dataclass(frozen=True)
class WignerField:
    """Real phase-space function sampled on a rectangular (x, xi) grid.

    values is a read-only C-ordered view (a copy only of other layouts), and the sum of each
    of its rows is taken once: the finiteness check and every position marginal read those
    sums.  The transform and the transport pass the row sums they took while making the rows
    as _row_sums.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    hbar: float
    _row_sums: InitVar[np.ndarray | None] = None

    def __post_init__(self, _row_sums: np.ndarray | None) -> None:
        # C order fixes the order of every reduction over the values, so their bits
        v = np.ascontiguousarray(self.values, dtype=float).view()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.shape:
            raise ConfigurationError(f"field shape {v.shape} != grid shape {self.grid.shape}")
        check_params("> 0", hbar=self.hbar)
        if _row_sums is None:
            with np.errstate(over="ignore", invalid="ignore"):
                _row_sums = v.sum(axis=1)
        # a finite row sum proves its row finite; where a sum is not, min and max
        # (which propagate nan and reach any inf) tell a non-finite value from an overflow
        if not (all_finite(_row_sums) or math.isfinite(v.min()) and math.isfinite(v.max())):
            raise ConfigurationError("field values must be finite")
        object.__setattr__(self, "_row_sums", _row_sums)


def sample_state(psi, grid: Grid1D, hbar: float) -> WaveSample:
    """Sample a callable psi(x) on a grid."""
    return WaveSample(grid, np.asarray(psi(grid.nodes()), dtype=complex), hbar)


def _check_sample(wave: WaveSample, ps_grid: PhaseSpaceGrid) -> None:
    if not wave.grid.close_to(ps_grid.x_grid):
        raise ConfigurationError("ps_grid.x_grid must equal the wave grid")
    peak = float(np.max(np.abs(wave.values)))
    if peak == 0.0:
        return
    edge = max(abs(wave.values[0]), abs(wave.values[-1]))
    if edge > tol.DECAY_TOL * peak:
        raise DomainTooSmallError(
            f"wave does not decay at the grid boundary: |psi(edge)|/|psi|_max = {edge / peak:.3e} "
            f"> {tol.DECAY_TOL:.1e}; enlarge the grid"
        )


def _row_chunks(n_rows: int, row_bytes: int, fixed_bytes: int = 0) -> list[slice]:
    """Row slices whose scratch fits _CHUNK_BYTES: row_bytes per row on top of
    fixed_bytes and NumPy's ufunc buffer (np.getbufsize() complex items)."""
    budget = _CHUNK_BYTES - fixed_bytes - 16 * np.getbufsize()
    rows = max(1, min(n_rows, budget // row_bytes))
    return [slice(k, min(k + rows, n_rows)) for k in range(0, n_rows, rows)]


def _each_chunk(chunks: list, work) -> None:
    """work(sl) for every chunk: the calling thread runs the even chunks and, given two shares,
    one helper thread the odd ones, in a copy of the caller's context (np.errstate is
    context-local).  work writes disjoint rows, in scratch that fits _CHUNK_BYTES / _SHARES."""
    if _SHARES < 2 or len(chunks) < 2:
        for sl in chunks:
            work(sl)
        return
    failure = []

    def odd_share():
        try:
            for sl in chunks[1::2]:
                work(sl)
        except BaseException as exc:  # re-raised on the caller
            failure.append(exc)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(odd_share,))
    helper.start()
    try:
        for sl in chunks[::2]:
            work(sl)
    finally:
        helper.join()
    if failure:
        raise failure[0]


def _lag_windows(wave: WaveSample) -> np.ndarray:
    """(n, 2n-1) view whose row k is psi(x_k + j d), j = -(n-1)..(n-1).

    Zero padding (3n - 2 complex entries) realises the extension of psi beyond
    the grid; row k is pad[k : k + 2n - 1].
    """
    n = wave.grid.count
    pad = np.zeros(3 * n - 2, dtype=complex)
    pad[n - 1 : 2 * n - 1] = wave.values
    return np.lib.stride_tricks.sliding_window_view(pad, 2 * n - 1)


def _direct_sum(wave: WaveSample, ps_grid: PhaseSpaceGrid) -> np.ndarray:
    """Complex transform values at any xi nodes, before the realness check.

    nu[k, j] = psi(x_k + j d) conj(psi(x_k - j d)) is a lag window times its
    reversed conjugate, summed against the kernel e^{-i j dy xi}.  The kernel is formed
    from its rows j >= 0 alone, as cos(theta) - i sin(theta) of theta = j dy xi, which is
    the complex exp of real part 0; lag -j has exactly the angles -theta, so its row is
    their conjugate.
    """
    n = wave.grid.count
    m = 2 * n - 1
    dy = 2.0 * wave.grid.step / wave.hbar
    windows = _lag_windows(wave)
    m_out = ps_grid.xi_grid.count
    theta = np.outer(np.arange(n) * dy, ps_grid.xi_grid.nodes())
    kernel = np.empty((m, m_out), dtype=complex)  # rows j = -(n-1)..(n-1)
    np.cos(theta, out=kernel.real[n - 1 :])
    np.negative(np.sin(theta, out=theta), out=kernel.imag[n - 1 :])
    np.conjugate(kernel[: n - 1 : -1], out=kernel[: n - 1])

    out = np.empty(ps_grid.shape, dtype=complex)
    # sequential: the zgemm chunk shapes decide the bits, and OpenBLAS threads each product
    for sl in _row_chunks(n, 16 * max(m, m_out)):
        win = windows[sl]
        nu = win * np.conj(win[:, ::-1])
        np.matmul(nu, kernel, out=out[sl])
        out[sl] *= dy / (2.0 * math.pi)
    return out


def _half_spectrum(wave: WaveSample, ps_grid: PhaseSpaceGrid) -> tuple[np.ndarray, np.ndarray]:
    """Real transform values on the natural xi lattice, from the j >= 0 lag products, and
    their row sums.

    nu[k, -j] = conj(nu[k, j]), so with xi_l = (l - c) dxi, c = (M - 1)/2 and
    dxi dy = 2 pi/M, row k is the Hermitian FFT of a_j = nu[k, j] e^{2 pi i j c/M}:
    hfft(a, M)[l] = irfft(conj(a), M, norm="forward")[l], written in place into the output.
    nu[k, j] is 0 past the grid edge, j > min(k, n - 1 - k), so a chunk's products stop at its
    last on-grid lag and irfft's own zero padding stands for the rest.  Each chunk's rows are
    summed while they are in cache.
    """
    n = wave.grid.count
    m = ps_grid.xi_grid.count
    c = (m - 1) // 2
    dy = 2.0 * wave.grid.step / wave.hbar
    windows = _lag_windows(wave)
    # conj of the twiddle and the quadrature weight, with j c reduced mod M exactly
    weights = np.exp(-2j * math.pi / m * (np.arange(n) * c % m)) * (dy / (2.0 * math.pi))

    out = np.empty(ps_grid.shape)
    row_sums = np.empty(n)

    def work(sl):
        mid = max(sl.start, min(sl.stop - 1, (n - 1) // 2))  # the chunk's row nearest the middle
        reach = 1 + min(mid, n - 1 - mid)  # lags j < reach: up to its last on-grid one
        conj_a = np.conjugate(windows[sl, n - 1 : n - 1 + reach])  # conj psi(x_k + j d)
        conj_a *= windows[sl, n - 1 :: -1][:, :reach]  # times psi(x_k - j d)
        conj_a *= weights[:reach]
        np.fft.irfft(conj_a, n=m, axis=1, norm="forward", out=out[sl])
        np.sum(out[sl], axis=1, out=row_sums[sl])

    # per row and share: the complex lag products and the float row irfft returns;
    # fixed: the zero padding behind the windows and the weights
    _each_chunk(_row_chunks(n, _SHARES * (16 * n + 8 * m),
                            fixed_bytes=16 * (3 * n - 2) + weights.nbytes), work)
    return out, row_sums


def wigner_transform(wave: WaveSample, ps_grid: PhaseSpaceGrid) -> WignerField:
    """Discrete Wigner transform of a sampled pure state.

    The output x-grid must coincide with the wave's grid.  When the xi grid is a natural
    conjugate lattice the inner sum is a Hermitian FFT of the j >= 0 lag products, real by
    construction.  Its runtime guard is the exact lattice identity position_marginal = |psi|^2
    within IM_TOL (relative to max|psi|^2).  The xi-sum only sees the j = 0 lag, so the guard
    catches normalisation and zero-lag faults but not faults in the j >= 1 terms; the tests pin
    those against a full-lag complex FFT.  Otherwise the discrete sum is evaluated exactly at
    the requested frequencies; the result is real by symmetry of the summand, and the
    floating-point imaginary residue is checked against IM_TOL (relative to the field peak when
    that exceeds unity) and dropped.  Either path raises NumericalConsistencyError where the
    field leaves the double range.
    """
    _check_sample(wave, ps_grid)
    natural = is_natural_xi_grid(wave.grid, wave.hbar, ps_grid.xi_grid)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan in a row: its sum raises
        if natural:
            values, row_sums = _half_spectrum(wave, ps_grid)
        else:
            spectrum = _direct_sum(wave, ps_grid)
            values = np.ascontiguousarray(spectrum.real)
            # max propagates a nan, which would pass the residue bound below
            residue = finite_result("the transform", float(np.max(np.abs(spectrum.imag))))
            row_sums = values.sum(axis=1)
        # the row sums are checked here and kept by the field
        marginal = finite_result("the transform", ps_grid.xi_grid.step * row_sums)
    if natural:
        density = np.abs(wave.values) ** 2
        gap = float(np.max(np.abs(marginal - density)))
        if gap > tol.IM_TOL * float(np.max(density)):
            raise NumericalConsistencyError(
                f"position marginal misses |psi|^2 by {gap:.3e} (limit {tol.IM_TOL:.1e} "
                "of max|psi|^2)"
            )
    else:
        peak = float(np.max(np.abs(values)))
        if residue > tol.IM_TOL * max(1.0, peak):
            raise NumericalConsistencyError(
                f"imaginary residue {residue:.3e} exceeds {tol.IM_TOL:.1e}"
            )
    return WignerField(ps_grid, values, wave.hbar, row_sums)


def position_marginal(field: WignerField) -> np.ndarray:
    """Integral of W over xi; equals |psi(x)|^2 for transform outputs."""
    with np.errstate(over="ignore"):
        marginal = field.grid.xi_grid.step * field._row_sums
    return finite_result("the position marginal", marginal)


def momentum_marginal(field: WignerField) -> np.ndarray:
    """Integral of W over x; equals (2pi/hbar)|psihat(xi/hbar)|^2."""
    with np.errstate(over="ignore"):
        marginal = field.grid.x_grid.step * field.values.sum(axis=0)
    return finite_result("the momentum marginal", marginal)


def total_mass(field: WignerField) -> float:
    """2-D rectangle quadrature of W; equals the squared norm of the state.

    values.sum() of the C-ordered values is one pairwise sum over all n of them, whose tree
    splits first at n//2 - (n//2) % 8 when n > 128.  A field larger than one chunk has its two
    halves summed as two shares and added: the same bits.
    """
    flat = field.values.reshape(-1)
    n = flat.size
    split = n // 2 - n // 2 % 8
    halves = ([slice(0, split), slice(split, n)] if n > 128 and flat.nbytes > _CHUNK_BYTES
              else [slice(0, n)])
    sums = np.zeros(2)

    def work(sl):
        sums[int(sl.start > 0)] = flat[sl].sum()  # the first half or the second

    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf = nan: raised below
        _each_chunk(halves, work)
        mass = field.grid.x_grid.step * field.grid.xi_grid.step * (sums[0] + sums[1])
    return float(finite_result("the total mass", mass))


def _require_same_layout(f1: WignerField, f2: WignerField) -> None:
    if not (
        f1.grid.x_grid.close_to(f2.grid.x_grid)
        and f1.grid.xi_grid.close_to(f2.grid.xi_grid)
        and abs(f1.hbar - f2.hbar) <= 1e-12 * f1.hbar
    ):
        raise ConfigurationError("fields must share grids and hbar")


def overlap_identity(f1: WignerField, f2: WignerField) -> float:
    """2*pi*hbar <W1, W2>; equals |<psi1, psi2>|^2 for pure-state fields."""
    _require_same_layout(f1, f2)
    dxdxi = f1.grid.x_grid.step * f1.grid.xi_grid.step
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in the sum is nan
        overlap = 2.0 * math.pi * f1.hbar * dxdxi * np.sum(f1.values * f2.values)
    return float(finite_result("the overlap", overlap))


def sup_norm_bound_slack(field: WignerField) -> float:
    """max|W| - mass/(pi*hbar); non-positive up to FIELD_TOL for pure states."""
    slack = float(np.max(np.abs(field.values))) - total_mass(field) / (math.pi * field.hbar)
    return finite_result("the sup-norm slack", slack)


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversionInfo:
    """Diagnostics of an inverse transform."""

    x_star: float
    x_star_index: int
    secondary_index: int | None
    relative_phase: float


def _require_natural(field: WignerField) -> None:
    g = field.grid
    if not is_natural_xi_grid(g.x_grid, field.hbar, g.xi_grid):
        raise ConfigurationError(
            "inversion and the purity check need the natural xi lattice of the x grid "
            "(natural_grid)"
        )


def _lattice_phase_sums(field: WignerField, q: np.ndarray, *sources) -> list[np.ndarray]:
    """dxi * sum_l rows[r, l] e^{i (x_k - x_k') xi_l / hbar}, one array per source (lo, hi,
    rows_at): the source covers q[lo:hi], and rows_at(sl) gives its rows of q[sl].

    On the natural lattice the phase is e^{i pi q_r (l - c)/M}, q_r = k - k' and
    c = (M - 1)/2, so every phase is an entry of the 2M-entry table e^{i pi s/M}
    at s = q_r (l - c) mod 2M.  Each phase row is built once, for every source that covers it.
    """
    m = field.grid.xi_grid.count
    c = (m - 1) // 2
    table = np.exp(1j * math.pi / m * np.arange(2 * m))
    # the narrowest integers that hold every q_r (l - c), whose largest |l - c| is m - 1 - c:
    # int32 divides by a scalar fast
    span = int(np.max(np.abs(q), initial=0)) * (m - 1 - c)
    index_type = np.dtype(np.int32 if span < 2**31 else np.int64)
    shift = np.arange(-c, m - c, dtype=index_type)
    outs = [np.empty(hi - lo, dtype=complex) for lo, hi, _ in sources]

    def work(sl):
        idx = np.multiply.outer(q[sl].astype(index_type), shift)
        idx -= idx // (2 * m) * (2 * m)  # idx mod 2M, the same integers as np.remainder
        # idx lies in [0, 2M), so mode="clip" only skips the bounds check
        phases = table.take(idx, mode="clip")
        del idx  # its room goes to rows_at
        for s, (lo, hi, rows_at) in enumerate(sources):
            a, b = max(sl.start, lo), min(sl.stop, hi)
            if a >= b:
                continue
            products = phases[a - sl.start : b - sl.start]
            if s < len(sources) - 1:  # a later source still reads these phases
                products = products * rows_at(slice(a, b))
            else:
                products *= rows_at(slice(a, b))
            np.sum(products, axis=1, out=outs[s][a - lo : b - lo])

    # per row and share at most 24 + 16 s M bytes for s sources: the complex phases (16 M), a
    # product (16 M) for each source but the last, and at most three float rows (24 M) while
    # rows_at builds its rows; before that, the w-byte index with its reduction (3 w M) or with
    # take's intp copy and the phases (at most 28 M)
    fixed = table.nbytes + shift.nbytes + sum(out.nbytes for out in outs)
    _each_chunk(_row_chunks(q.size, _SHARES * (24 + 16 * len(sources)) * m, fixed_bytes=fixed),
                work)
    return [field.grid.xi_grid.step * out for out in outs]


def _rows(w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """w[idx] for a run of consecutive indices, perhaps clipped at the edges: a view of the
    rows unless clipping repeated an edge row, which only an index can."""
    first = int(idx[0])
    if int(idx[-1]) - first == idx.size - 1:
        return w[first : first + idx.size]
    return w[idx]


def _anchor_products(field: WignerField, k_targets: np.ndarray, k_anchor: int,
                     second: tuple[np.ndarray, int] | None = None) -> list[np.ndarray]:
    """psi(x_k) * conj(psi(x_anchor)) for targets with (k + k_anchor) even, and the same for a
    second (targets, anchor) pair if one is given: one array per pair.

    Rectangle quadrature of the reconstruction integral; exact on the natural frequency
    lattice.  The targets are every other node of a range, so a pair's shifts k - k_anchor are
    a run of even numbers 2p and its midpoint rows k_anchor + p are consecutive, read as views.
    The pairs share the phase row of every shift in the union of their runs.
    """
    pairs = [(k_targets, k_anchor)] + ([second] if second is not None else [])
    firsts = [int(targets[0]) - anchor for targets, anchor in pairs]
    q = np.arange(min(firsts), max(int(t[-1]) - a for t, a in pairs) + 1, 2)
    sources = []
    for (targets, anchor), first in zip(pairs, firsts):
        lo = (first - int(q[0])) // 2
        row = (int(targets[0]) + anchor) // 2 - lo  # the midpoint row of q[i] is row + i

        def rows_at(sl, row=row):
            return field.values[row + sl.start : row + sl.stop]

        sources.append((lo, lo + targets.size, rows_at))
    return _lattice_phase_sums(field, q, *sources)


def _half_row_products(field: WignerField, k_targets: np.ndarray, k_anchor: int) -> np.ndarray:
    """Same as _anchor_products but for odd k + k_anchor (half-step midpoints).

    Rows of W at half-step x are interpolated with a 4-point cubic; only used
    to estimate the single cross-parity phase, which enters fidelity at
    second order.  Only the clipped edge rows of the interpolation are gathered by index.
    """
    w = field.values
    n = field.grid.x_grid.count
    lo = (k_targets + k_anchor - 1) // 2  # half row sits between lo and lo+1
    c0 = np.clip(lo - 1, 0, n - 1)
    c1 = np.clip(lo, 0, n - 1)
    c2 = np.clip(lo + 1, 0, n - 1)
    c3 = np.clip(lo + 2, 0, n - 1)

    def rows_at(sl):
        # (-w0 + 9 w1 + 9 w2 - w3)/16, built in place from views of the rows
        rows = _rows(w, c1[sl]) + _rows(w, c2[sl])
        rows *= 9.0
        rows -= _rows(w, c0[sl])
        rows -= _rows(w, c3[sl])
        rows /= 16.0
        return rows

    return _lattice_phase_sums(field, k_targets - k_anchor, (0, k_targets.size, rows_at))[0]


def invert_wigner(
    field: WignerField,
    x_star: float | None = None,
    with_info: bool = False,
):
    """Recover the wavefunction from its Wigner field, up to a global phase.

    The global phase is fixed so psi(x_star) is real and positive.  x_star
    defaults to the smallest node attaining the maximum of the position
    marginal; a user-supplied value is snapped to the nearest node.  Node
    sampling only ties nodes of equal parity to the anchor, so the opposite
    sublattice is reconstructed from its own anchor and joined with a phase
    estimated from interpolated half-step rows.  The field must sit on the
    natural xi lattice of its x grid, where the reconstruction is exact;
    ConfigurationError otherwise.
    """
    _require_natural(field)
    marg = position_marginal(field)
    g = field.grid.x_grid
    n = g.count

    if x_star is None:
        k_star = int(np.argmax(marg))
    else:
        check_params(x_star=x_star)
        # clipped before rounding: a quotient past the floats (+-inf) lies off the grid too
        k_star = int(round(min(max((float(x_star) - g.x_min) / g.step, -1.0), float(n))))
        if not 0 <= k_star < n:
            raise ConfigurationError(f"x_star {x_star} lies outside the grid")
    if marg[k_star] <= tol.INVERSION_FLOOR:
        k_star = int(np.argmax(marg))
    if marg[k_star] <= tol.INVERSION_FLOOR:
        raise NotInvertibleError(
            f"position marginal peak {marg[k_star]:.3e} is below the inversion floor"
        )

    values = np.zeros(n, dtype=complex)
    k_all = np.arange(n)
    same = k_all[(k_all + k_star) % 2 == 0]
    opp = k_all[(k_all + k_star) % 2 == 1]
    k2 = int(opp[np.argmax(marg[opp])]) if opp.size else None
    second = (opp, k2) if k2 is not None and marg[k2] > tol.INVERSION_FLOOR else None
    alpha = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan in a sum: raised below
        products = _anchor_products(field, same, k_star, second)
        values[same] = products[0] / math.sqrt(marg[k_star])
        if second is not None:
            raw = products[1] / math.sqrt(marg[k2])
            cross = _half_row_products(field, opp, k_star) / math.sqrt(marg[k_star])
            z = np.vdot(raw, cross)  # sum conj(raw)*cross, weighted by |psi|^2
            if abs(z) > 0.0:
                alpha = float(np.angle(z))
            values[opp] = raw * np.exp(1j * alpha)

    wave = WaveSample(g, finite_result("the inverse transform", values), field.hbar)
    if with_info:
        info = InversionInfo(g.nodes()[k_star], k_star, k2, alpha)
        return wave, info
    return wave


# ---------------------------------------------------------------------------
# Continuity of the transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityReport:
    """Observed field gaps and their wavefunction-side upper bounds."""

    l2_gap: float
    sup_gap: float
    l2_bound: float
    sup_bound: float
    theta_used: float


def _inner(w1: WaveSample, w2: WaveSample) -> complex:
    return complex(w1.grid.step * np.sum(np.conj(w1.values) * w2.values))


def continuity_gap(
    w1: WignerField, w2: WignerField, phi1: WaveSample, phi2: WaveSample
) -> ContinuityReport:
    """Field distance bounds: L2 gap and sup gap of w1 - w2 against
    C * min_theta ||e^{i theta} phi1 - phi2||, with C = sqrt(2/hbar)(||phi1|| + ||phi2||)
    for the L2 bound and C = (||phi1|| + ||phi2||)/(pi hbar) for the sup bound.

    The minimising theta is arg<phi2, phi1>, the exact closed-form minimiser.
    """
    _require_same_layout(w1, w2)
    if not (phi1.grid.close_to(phi2.grid) and phi1.grid.close_to(w1.grid.x_grid)):
        raise ConfigurationError("wavefunctions must share the fields' x grid")

    norms = math.sqrt(phi1.norm_sq()) + math.sqrt(phi2.norm_sq())
    dxdxi = w1.grid.x_grid.step * w1.grid.xi_grid.step
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf * 0 = nan: raised below
        diff = w1.values - w2.values
        l2_gap = math.sqrt(dxdxi * float(np.sum(diff * diff)))
        sup_gap = float(np.max(np.abs(diff)))

        # arg<phi2, phi1> in the conjugate-second convention, i.e. arg Int phi1 conj(phi2):
        # the exact minimiser of theta -> ||e^{i theta} phi1 - phi2||.
        theta = float(np.angle(_inner(phi1, phi2)))
        rotated = np.exp(1j * theta) * phi1.values
        phi_gap = math.sqrt(phi1.grid.step * float(np.sum(np.abs(rotated - phi2.values) ** 2)))
    l2_bound = math.sqrt(2.0 / w1.hbar) * norms * phi_gap
    sup_bound = norms / (math.pi * w1.hbar) * phi_gap
    finite_result("the continuity gap", (l2_gap, sup_gap, l2_bound, sup_bound))
    return ContinuityReport(l2_gap, sup_gap, l2_bound, sup_bound, theta)


# ---------------------------------------------------------------------------
# Pure-state diagnostic
# ---------------------------------------------------------------------------

def purity_separability_check(field: WignerField) -> float:
    """Cross-ratio residual of the reconstructed kernel Q(x1, x2).

    Q(x1, x2) = Integral W((x1+x2)/2, xi) e^{i(x1-x2)xi/hbar} dxi equals
    psi(x1) conj(psi(x2)) exactly when the field comes from a pure state, so
    every 2x2 determinant of Q vanishes.  The residual is the largest
    determinant over sampled same-parity node pairs, normalised by max|Q|^2.
    Raises IndeterminateResultError when max|Q| is below floor, and
    ConfigurationError off the natural xi lattice, where Q is not exact.
    """
    _require_natural(field)
    marg = position_marginal(field)
    peak = float(np.max(np.abs(marg)))
    if peak <= tol.INVERSION_FLOOR:
        raise IndeterminateResultError("field carries no usable marginal mass")

    k_star = int(np.argmax(marg))
    candidates = np.flatnonzero(np.abs(marg) >= 1e-3 * peak)
    candidates = candidates[(candidates + k_star) % 2 == 0]
    if candidates.size > _PURITY_NODES:
        sel = np.linspace(0, candidates.size - 1, _PURITY_NODES).round().astype(int)
        candidates = candidates[np.unique(sel)]
    if candidates.size < 2:
        raise IndeterminateResultError("not enough usable nodes for the cross-ratio check")

    mids = ((candidates[:, None] + candidates[None, :]) // 2).ravel()
    shifts = (candidates[:, None] - candidates[None, :]).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan in a sum: raised next
        q = _lattice_phase_sums(field, shifts, (0, shifts.size, lambda sl: field.values[mids[sl]]))
    q = finite_result("the kernel", q[0]).reshape(candidates.size, candidates.size)

    qmax = float(np.max(np.abs(q)))
    if qmax <= tol.INVERSION_FLOOR:
        raise IndeterminateResultError("kernel magnitude below floor")
    q = q / qmax  # the ratio is scale-free, and no product of q / qmax leaves the double range
    minors = q[:, None, :, None] * q[None, :, None, :] - q[:, None, None, :] * q[None, :, :, None]
    return float(np.max(np.abs(minors)))

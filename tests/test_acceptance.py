"""Release acceptance checks, one test per criterion at a pinned tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one status line per
criterion.
"""

import json
import math
import time

import numpy as np
import scipy.integrate

import wignerflow as wf
from wignerflow import cli

from conftest import CATALOG, fidelity

ALL_IDS = sorted(CATALOG)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {status} - {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def test_criterion_1_gaussian_transform_exactness():
    grid = wf.Grid1D.from_span(-8.0, 8.0, 512)
    state = wf.CoherentGaussian(0.0, 0.0, 1.0)
    wave = wf.sample_catalog_state(state, grid)
    ps = wf.natural_grid(grid, 1.0)
    start = time.perf_counter()
    field = wf.wigner_transform(wave, ps)
    elapsed = time.perf_counter() - start
    exact = state.wigner(ps.x_grid.nodes()[:, None], ps.xi_grid.nodes()[None, :])
    err = float(np.max(np.abs(field.values - exact)))
    _report(1, "Gaussian transform exactness",
            err <= 1e-8 and elapsed <= 5.0,
            f"max err {err:.2e} <= 1e-08, runtime {elapsed:.2f}s <= 5s")


def test_criterion_2_transform_identities(catalog_fields):
    worst = 0.0
    worst_case = ""
    for state_id in ALL_IDS:
        _, wave, ps, field = catalog_fields(state_id)
        xs = wave.grid.nodes()
        xi = ps.xi_grid.nodes()
        pos = float(np.max(np.abs(wf.position_marginal(field) - np.abs(wave.values) ** 2)))
        ft = wave.grid.step / (2.0 * math.pi) * (
            wave.values[None, :] * np.exp(-1j * np.outer(xi / wave.hbar, xs))
        ).sum(axis=1)
        mom = float(np.max(np.abs(
            wf.momentum_marginal(field) - 2.0 * math.pi / wave.hbar * np.abs(ft) ** 2
        )))
        mass = abs(wf.total_mass(field) - 1.0)
        norm = abs(wf.overlap_identity(field, field) - wave.norm_sq() ** 2)
        for label, val in (("L1pos", pos), ("L1mom", mom), ("L2", mass), ("L3", norm)):
            if val > worst:
                worst, worst_case = val, f"{state_id}:{label}"
    _report(2, "marginal, mass and overlap identities on the full catalog",
            worst <= 1e-6, f"worst {worst:.2e} at {worst_case}")


def test_criterion_3_inversion_fidelity(catalog_fields):
    worst = 1.0
    worst_id = ""
    for state_id in ALL_IDS:
        _, wave, _, field = catalog_fields(state_id)
        fid = fidelity(wf.invert_wigner(field), wave)
        if fid < worst:
            worst, worst_id = fid, state_id
    _report(3, "inversion round-trip fidelity on all invertible catalog states",
            worst >= 1.0 - 1e-6, f"worst fidelity 1 - {1.0 - worst:.2e} at {worst_id}")


def test_criterion_4_continuity_bounds():
    rng = np.random.default_rng(2024)
    grid = wf.Grid1D.symmetric(10.5, 201)
    ps = wf.natural_grid(grid, 1.0)
    violations = 0
    margin = math.inf
    for _ in range(100):
        a, p = rng.uniform(-1.0, 1.0, 2)
        da, dp = rng.uniform(-0.2, 0.2, 2)
        phi1 = wf.sample_catalog_state(wf.CoherentGaussian(a, p, 1.0), grid)
        phi2 = wf.sample_catalog_state(wf.CoherentGaussian(a + da, p + dp, 1.0), grid)
        w1 = wf.wigner_transform(phi1, ps)
        w2 = wf.wigner_transform(phi2, ps)
        rep = wf.continuity_gap(w1, w2, phi1, phi2)
        if rep.l2_gap > rep.l2_bound or rep.sup_gap > rep.sup_bound:
            violations += 1
        if rep.l2_bound > 0:
            margin = min(margin, rep.l2_bound - rep.l2_gap, rep.sup_bound - rep.sup_gap)
    _report(4, "continuity bounds on 100 seeded perturbed-Gaussian pairs",
            violations == 0, f"violations {violations}, smallest slack {margin:.2e}")


def test_criterion_5_eigen_spectrum_and_residual_order(tmp_path):
    cfg = cli.parse_config(json.dumps(
        {"command": "eigen", "omega": 1.0, "hbar": 1.0, "n_max": 10, "sample_count": 3}
    ))
    table, _ = cli.compute(cfg)
    energies_exact = all(
        row[1] == (2 * n + 1) * 1.0 * 1.0 for n, row in enumerate(table.rows)
    )

    state = wf.HarmonicEigen(2, 1.0, 1.0, normalized=True)
    energy = wf.harmonic_energy(2, 1.0, 1.0)
    orders = []
    for point in ((0.6, 0.45), (-0.8, 0.3)):
        ra, rb = [], []
        for h in (0.08, 0.04, 0.02):
            a, b = wf.stationary_residual(state, energy, point, (h, h))
            ra.append(abs(a))
            rb.append(abs(b))
        orders += [math.log2(ra[0] / ra[1]), math.log2(ra[1] / ra[2]),
                   math.log2(rb[0] / rb[1]), math.log2(rb[1] / rb[2])]
    orders_ok = all(1.8 <= o <= 2.2 for o in orders)
    _report(5, "eigen spectrum exact and eigen-pair residual order 2.0 +- 0.2",
            energies_exact and orders_ok,
            f"orders {min(orders):.2f}..{max(orders):.2f}")


def test_criterion_6_flow_validation():
    rng = np.random.default_rng(777)
    ts = np.linspace(0.0, 10.0, 21)
    gammas = np.concatenate([
        rng.uniform(1e-3, 25.0, 20),
        # hyperbolic branch: eps*cosh^2 cancellation caps 2*w*t near 6 when
        # asserting the Wronskian at 1e-10 in double precision
        -rng.uniform(1e-3, 0.09, 20),
        rng.uniform(-1e-8, 1e-8, 10),
    ])
    worst_w = 0.0
    for gamma in gammas:
        params = wf.OscillatorParams(float(gamma), wf.Constant(0.4))
        for t in ts:
            worst_w = max(worst_w, abs(wf.flow_coefficients(params, float(t)).wronskian() + 1.0))
    wronskian_ok = worst_w <= 1e-10

    drive = wf.Cosine(0.7, 1.3, 2.1)
    worst_q = 0.0
    for gamma in (2.0, -1.5, 0.0, -0.25):
        params = wf.OscillatorParams(gamma, drive)
        for t in (0.8, 2.3):
            c = wf.flow_coefficients(params, t)
            for entry, got in (("a2", c.a3), ("b2", c.b3)):
                def f(s, entry=entry, gamma=gamma):
                    e = wf.flow_coefficients(wf.OscillatorParams(gamma), s)
                    return float(wf.drive_value(drive, s)) * float(getattr(e, entry))
                ref, _ = scipy.integrate.quad(f, 0.0, t, limit=400,
                                              epsabs=1e-13, epsrel=1e-13)
                worst_q = max(worst_q, abs(got - ref))
    drive_ok = worst_q <= 1e-10

    params = wf.OscillatorParams(-1.0, wf.Constant(0.0), 1.0)
    packet = wf.CoherentGaussian(0.0, 0.0, 1.0)
    g = wf.Grid1D.symmetric(6.0, 61)
    ps = wf.PhaseSpaceGrid(g, wf.symmetric_xi_grid(6.0, 61))
    res = [wf.liouville_residual(params, packet.wigner, 0.5, ps, h, h, h)
           for h in (0.08, 0.04, 0.02)]
    orders = [math.log2(res[0] / res[1]), math.log2(res[1] / res[2])]
    order_ok = all(1.8 <= o <= 2.2 for o in orders)

    _report(6, "flow map: Wronskian, drive closed forms, transport residual order",
            wronskian_ok and drive_ok and order_ok,
            f"wronskian {worst_w:.1e}, drive {worst_q:.1e}, "
            f"orders {orders[0]:.2f}/{orders[1]:.2f}")


def test_criterion_7_gaussian_consistency_triangle():
    packet = wf.GaussianPacket(-1.0, 0.8, 1.0)
    regimes = {
        "free_stark": wf.OscillatorParams(0.0, wf.Constant(0.7), 1.0),
        "harmonic": wf.OscillatorParams(1.44, wf.Constant(0.0), 1.0),
        "driven_inverted": wf.OscillatorParams(-1.0, wf.Cosine(0.5, 0.3, 2.0), 1.0),
    }
    worst = 0.0
    worst_case = ""
    for name, params in regimes.items():
        for t in (0.4, 1.1):
            shape = wf.packet_shape(packet, params, t)
            width = math.sqrt(packet.hbar * shape.A)
            xs = np.linspace(shape.v - 6 * width, shape.v + 6 * width, 25)
            dens = wf.density(packet, params, xs, t)
            psi_sq = np.abs(wf.wavefunction(packet, params, xs, t)) ** 2
            marg = np.empty_like(xs)
            for i, x in enumerate(xs):
                centre = -(shape.Bc1 * x + shape.Bc0) / (2.0 * shape.A)
                sigma = math.sqrt(packet.hbar / shape.A)
                xi = np.linspace(centre - 14 * sigma, centre + 14 * sigma, 4001)
                marg[i] = np.trapezoid(
                    wf.wigner_evolved(packet, params, x, xi, t), xi
                )
            gaps = (np.max(np.abs(dens - psi_sq)), np.max(np.abs(dens - marg)),
                    np.max(np.abs(psi_sq - marg)))
            if max(gaps) > worst:
                worst, worst_case = max(gaps), f"{name}@t={t}"
    _report(7, "density / wavefunction / field-marginal consistency triangle",
            worst <= 1e-8, f"worst pairwise gap {worst:.2e} at {worst_case}")


def test_criterion_8_tunneling():
    packet_kwargs = dict(a=-5.0, omega=1.0, hbar=1.0)

    def scen(p0, drive=None):
        return wf.TunnelScenario(
            wf.GaussianPacket(packet_kwargs["a"], p0, packet_kwargs["hbar"]),
            packet_kwargs["omega"], drive or wf.Constant(0.0)
        )

    p_crit_ok = wf.critical_momentum(scen(0.0)) == 5.0
    half_ok = abs(wf.asymptotic_probability(scen(5.0)) - 0.5) <= 1e-12
    straddle_ok = (wf.asymptotic_probability(scen(4.0)) > 0.5
                   > wf.asymptotic_probability(scen(6.0)))
    late_ok = all(
        abs(wf.survival_probability(scen(p0), 15.0) - wf.asymptotic_probability(scen(p0)))
        <= 1e-6
        for p0 in (4.0, 5.0, 6.0)
    )

    sc = scen(4.0)
    t = 1.3
    shape = wf.packet_shape(sc.packet, sc.oscillator(), t)
    width = math.sqrt(shape.A)
    xs = np.linspace(shape.v - 12 * width, 0.0, 200001)
    quad = np.trapezoid(wf.density(sc.packet, sc.oscillator(), xs, t), xs)
    quad_ok = abs(wf.survival_probability(sc, t) - quad) <= 1e-6

    rng = np.random.default_rng(31)
    driven_worst = 0.0
    for _ in range(20):
        lam, b = rng.uniform(-1.0, 1.0, 2)
        omega_d = rng.uniform(0.5, 3.0)
        drv = wf.Cosine(lam, b, omega_d)
        sc_d = scen(4.5, drv)
        t_star = 25.0
        driven_worst = max(driven_worst, abs(
            wf.survival_probability(sc_d, t_star) - wf.asymptotic_probability(sc_d)
        ))
    driven_ok = driven_worst <= 1e-8

    _report(8, "tunneling observables at the reference parameters",
            p_crit_ok and half_ok and straddle_ok and late_ok and quad_ok and driven_ok,
            f"driven formula vs numeric limit worst {driven_worst:.1e}")


def test_criterion_9_stationary_residuals(catalog_fields):
    points = [(x, xi) for x in (0.4, 0.7, 1.1, -0.6, -0.9) for xi in (0.25, 0.6)]
    worst = 0.0
    for point in points:
        r40, r41 = wf.delta_stationary_residual(-2.0, 1.0, point)
        worst = max(worst, abs(r40), abs(r41))
    delta_ok = worst <= 1e-4

    state, wave, ps, field = catalog_fields("soliton")
    exact = state.wigner(ps.x_grid.nodes()[:, None], ps.xi_grid.nodes()[None, :])
    soliton_err = float(np.max(np.abs(field.values - exact)))
    soliton_ok = soliton_err <= 1e-6

    _report(9, "delta-potential pair residuals and soliton closed form",
            delta_ok and soliton_ok,
            f"worst pair residual {worst:.2e}, soliton node err {soliton_err:.2e}")


def test_criterion_10_box_l1_log_growth():
    masses = [wf.box_l1_growth(1.0, 2.0, cutoff) for cutoff in (10.0, 100.0, 1000.0)]
    ratio = (masses[2] - masses[1]) / (masses[1] - masses[0])
    ok = abs(ratio - 1.0) <= 0.25 and masses[0] < masses[1] < masses[2]
    _report(10, "box-state truncated L1 mass grows logarithmically",
            ok, f"decade increment ratio {ratio:.4f}")


def test_criterion_11_determinism(tmp_path):
    cfg = cli.parse_config(json.dumps({
        "command": "tunnel", "a": -5.0, "p0_list": [4.0, 5.0, 6.0],
        "omega": 1.0, "hbar": 1.0, "t_max": 15.0, "t_steps": 100,
    }))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.run(cfg, out_path=p1)
    cli.run(cfg, out_path=p2)
    identical = p1.read_bytes() == p2.read_bytes()
    _report(11, "byte-identical CSV for identical configs", identical)

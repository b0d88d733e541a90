"""Tunnel-effect observables for the (driven) inverted oscillator."""

import math

import numpy as np
import pytest

import wignerflow as wf
from wignerflow.errors import UnsupportedConfigurationError


def scenario(a=-5.0, p0=4.0, omega=1.0, hbar=1.0, drive=None):
    return wf.TunnelScenario(
        wf.GaussianPacket(a, p0, hbar), omega, drive or wf.Constant(0.0)
    )


def test_survival_starts_near_one_for_far_packet():
    assert wf.survival_probability(scenario(p0=4.0), 0.0) == pytest.approx(1.0, abs=1e-10)


def test_survival_is_half_for_centred_packet():
    sc = scenario(a=0.0, p0=0.0)
    for t in (0.0, 0.7, 3.0):
        assert wf.survival_probability(sc, t) == 0.5


def test_survival_matches_explicit_hyperbolic_formula():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rng.uniform(-6.0, -0.5)
        p0 = rng.uniform(0.0, 6.0)
        omega = rng.uniform(0.4, 2.0)
        hbar = rng.uniform(0.3, 2.0)
        t = rng.uniform(0.0, 4.0)
        sc = scenario(a, p0, omega, hbar)
        ch, sh = math.cosh(2 * omega * t), math.sinh(2 * omega * t)
        explicit = 0.5 - 0.5 * wf.erf(
            (p0 * sh + a * omega * ch)
            / (math.sqrt(hbar) * math.sqrt(sh * sh + omega * omega * ch * ch))
        )
        assert wf.survival_probability(sc, t) == pytest.approx(explicit, abs=1e-12)


def test_asymptotic_probability_at_critical_momentum_is_half():
    sc = scenario(p0=wf.critical_momentum(scenario()))
    assert wf.asymptotic_probability(sc) == pytest.approx(0.5, abs=1e-12)
    driven = scenario(p0=0.0, drive=wf.Cosine(0.7, 0.4, 1.9))
    crit = wf.critical_momentum(driven)
    at_crit = scenario(p0=crit, drive=wf.Cosine(0.7, 0.4, 1.9))
    assert wf.asymptotic_probability(at_crit) == pytest.approx(0.5, abs=1e-12)


def test_driven_asymptotics_reduce_to_undriven():
    plain = scenario(p0=3.7)
    trivially_driven = scenario(p0=3.7, drive=wf.Cosine(0.0, 0.0, 2.3))
    assert wf.asymptotic_probability(plain) == wf.asymptotic_probability(trivially_driven)


def test_supercritical_limit_matches_density_quadrature():
    sc = scenario(p0=6.0)
    p_inf = wf.asymptotic_probability(sc)
    assert p_inf < 0.5
    t = 20.0
    shape = wf.packet_shape(sc.packet, sc.oscillator(), t)
    width = math.sqrt(shape.A)
    xs = np.linspace(min(shape.v - 10 * width, -1.0), 0.0, 200001)
    params = sc.oscillator()
    mass_left = np.trapezoid(wf.density(sc.packet, params, xs, t), xs)
    assert p_inf == pytest.approx(mass_left, abs=1e-6)


def test_survival_quadrature_consistency_random_scenario():
    rng = np.random.default_rng(23)
    sc = scenario(rng.uniform(-4, -1), rng.uniform(0, 3), rng.uniform(0.5, 1.5))
    t = rng.uniform(0.5, 2.0)
    shape = wf.packet_shape(sc.packet, sc.oscillator(), t)
    width = math.sqrt(sc.packet.hbar * shape.A)
    lo = min(shape.v - 10 * width, -10 * width)
    xs = np.linspace(lo, 0.0, 100001)
    mass_left = np.trapezoid(wf.density(sc.packet, sc.oscillator(), xs, t), xs)
    assert wf.survival_probability(sc, t) == pytest.approx(mass_left, abs=1e-6)


def test_critical_momentum_examples():
    assert wf.critical_momentum(scenario()) == 5.0
    trivially_driven = scenario(drive=wf.Cosine(0.0, 0.0, 1.7))
    assert wf.critical_momentum(trivially_driven) == pytest.approx(5.0, rel=1e-14)
    stark = scenario(drive=wf.Cosine(1.0, 0.0, 0.9))
    assert wf.critical_momentum(stark) == pytest.approx(5.5, rel=1e-14)


def test_energies_examples():
    sc = scenario(a=-5.0, p0=4.0, omega=1.0, hbar=1.0)
    e_q, e_c = wf.energies(sc)
    assert e_q == e_c == 4.0**2 - 5.0**2
    sc2 = scenario(a=-2.0, p0=2.0 * 1.0, omega=1.0)  # p0 = |omega a| -> barrier top
    assert wf.energies(sc2)[1] == 0.0
    sc3 = scenario(omega=0.7, hbar=0.5)
    e_q3, e_c3 = wf.energies(sc3)
    assert e_q3 - e_c3 == pytest.approx(0.5 * (1 - 0.49) * 0.5, rel=1e-14)
    tiny = scenario(omega=0.7, hbar=1e-12)
    e_q4, e_c4 = wf.energies(tiny)
    assert e_q4 == pytest.approx(e_c4, abs=1e-11)
    with pytest.raises(UnsupportedConfigurationError):
        wf.energies(scenario(drive=wf.Cosine(0.1, 0.0, 1.0)))


def test_classify_regime():
    assert wf.classify_regime(scenario(p0=4.0)) == "subcritical"
    assert wf.classify_regime(scenario(p0=5.0)) == "critical"
    assert wf.classify_regime(scenario(p0=6.0)) == "supercritical"


def test_report_invariants():
    for p0, expected in ((4.0, "subcritical"), (5.0, "critical"), (6.0, "supercritical")):
        report = wf.tunnel_report(scenario(p0=p0))
        assert report.regime == expected
        assert 0.0 < report.P_inf < 1.0
        if expected == "subcritical":
            assert report.P_inf > 0.5
        elif expected == "critical":
            assert report.P_inf == pytest.approx(0.5, abs=1e-12)
        else:
            assert report.P_inf < 0.5


def test_figure1_series_ordering_and_limits():
    t_grid = np.linspace(0.0, 15.0, 301)
    series = wf.figure1_series(-5.0, 1.0, 1.0, [4.0, 5.0, 6.0], t_grid)
    assert series.shape == (3, 301)
    assert np.all((series >= 0.0) & (series <= 1.0))
    sub, crit, sup = series[:, -1]
    assert sub > crit > sup
    assert crit == pytest.approx(0.5, abs=1e-9)
    for row, p0 in zip(series, (4.0, 5.0, 6.0)):
        limit = wf.asymptotic_probability(scenario(p0=p0))
        assert row[-1] == pytest.approx(limit, abs=1e-6)
    # the subcritical curve recovers above its initial dip and tends above 1/2
    assert sub >= 0.5
    assert series[0, -1] >= np.min(series[0])


def test_asymptotic_monotone_decreasing_in_p0():
    p0s = np.linspace(0.0, 10.0, 41)
    values = [wf.asymptotic_probability(scenario(p0=float(p))) for p in p0s]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_semiclassical_sharpening():
    hbars = [1.0, 0.1, 0.01, 0.001]
    sub = [wf.asymptotic_probability(scenario(p0=4.0, hbar=h)) for h in hbars]
    sup = [wf.asymptotic_probability(scenario(p0=6.0, hbar=h)) for h in hbars]
    # monotone approach to the classical picture; the subcritical branch
    # saturates to 1.0 in double precision once erfc underflows
    assert all(a <= b for a, b in zip(sub, sub[1:])) and sub[1] > sub[0]
    assert all(a >= b for a, b in zip(sup, sup[1:])) and sup[1] < sup[0]
    assert sub[-1] > 1.0 - 1e-12
    assert sup[-1] < 1e-12


def test_driven_asymptotics_match_numeric_limit():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lam, b = rng.uniform(-1.0, 1.0, 2)
        omega_d = rng.uniform(0.5, 3.0)
        omega = rng.uniform(0.5, 1.5)
        sc = scenario(a=-4.0, p0=3.0, omega=omega, drive=wf.Cosine(lam, b, omega_d))
        t_star = 25.0 / omega
        assert wf.survival_probability(sc, t_star) == pytest.approx(
            wf.asymptotic_probability(sc), abs=1e-8
        )


def test_asymptotics_unsupported_for_tabulated_drive():
    drive = wf.Tabulated(np.array([0.0, 1.0]), np.array([0.2, 0.4]))
    with pytest.raises(UnsupportedConfigurationError):
        wf.asymptotic_probability(scenario(drive=drive))


def test_survival_well_defined_at_moderate_horizon():
    sc = scenario(p0=4.0)
    t_star = wf.asymptotic_time(1.0)
    assert wf.survival_probability(sc, t_star) == pytest.approx(
        wf.asymptotic_probability(sc), abs=1e-8
    )


def test_survival_tends_to_its_limit_out_to_omega_t_1000():
    # v and sqrt(A) each overflow past omega t ~ 180; their ratio does not
    t_grid = np.linspace(0.0, 1000.0, 51)
    series = wf.figure1_series(-5.0, 1.0, 1.0, [4.0, 5.0, 6.0], t_grid)
    assert np.all(np.isfinite(series)) and np.all((series >= 0.0) & (series <= 1.0))
    for row, p0 in zip(series, (4.0, 5.0, 6.0)):
        assert np.max(np.abs(row[10:] - wf.asymptotic_probability(scenario(p0=p0)))) <= 1e-12


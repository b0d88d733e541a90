"""Tunnel-effect observables for the (driven) inverted oscillator."""

import math
import warnings

import numpy as np
import pytest

import wignerflow as wf
from wignerflow.errors import (
    ConfigurationError,
    NumericalConsistencyError,
    UnsupportedConfigurationError,
)


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



def test_energies_past_the_double_range_raise():
    # p0**2 raises OverflowError from 1e155 on; w*w*a**2 rounds to inf without raising
    for sc in (scenario(a=0.0, p0=1e200), scenario(a=1e154, p0=0.0, omega=2.0)):
        with pytest.raises(NumericalConsistencyError, match="energy exceeds the double range"):
            wf.energies(sc)
        with pytest.raises(NumericalConsistencyError):
            wf.tunnel_report(sc)


@pytest.mark.parametrize("omega", [1e154, 1.4e154, 1e200, math.inf, math.nan])
def test_scenario_rejects_an_omega_whose_square_leaves_the_double_range(omega):
    with pytest.raises(ConfigurationError, match="omega"):
        scenario(omega=omega, drive=wf.Cosine(0.1, 0.2, 1.0))


def test_scenario_accepts_an_omega_whose_square_stays_in_the_double_range():
    sc = scenario(omega=6.7e153)  # 4 omega^2 just below the double range
    assert sc.oscillator().gamma == -(6.7e153**2)


def test_critical_momentum_past_the_double_range_raises():
    with pytest.raises(NumericalConsistencyError, match="critical momentum"):
        wf.critical_momentum(scenario(a=-1e200, omega=1e150))
    assert wf.asymptotic_probability(scenario(a=-1e200, omega=1e150)) == 1.0
    # p_crit ~ omega here: formed term by term, no product leaves the double range
    driven = scenario(a=-1.0, omega=1e153, drive=wf.Cosine(0.1, 0.2, 1.0))
    assert wf.critical_momentum(driven) == pytest.approx(1e153, rel=1e-15)


def test_critical_momentum_of_a_nearly_flat_barrier_is_finite():
    # 2 omega (Omega^2 + 4 omega^2) underflows to 0; p_crit = lam/(2 omega) = -5e108
    sc = scenario(a=-3.0, p0=2.0, omega=1e-109, drive=wf.Cosine(-1.0, 0.0, 0.0))
    assert wf.critical_momentum(sc) == pytest.approx(-5e108, rel=1e-15)
    assert wf.asymptotic_probability(sc) == 0.0


@pytest.mark.parametrize("a", [2.0, 0.3, -0.7])
def test_critical_momentum_holds_for_either_sign_of_a(a):
    omega, p0 = 1.5, 0.5
    undriven = [scenario(a=a, p0=p0, omega=omega, drive=d)
                for d in (wf.Constant(0.0), wf.Cosine(0.0, 0.0, 1.0), wf.Cosine(0.0, 0.0, 2.7))]
    p_crits = {wf.critical_momentum(sc) for sc in undriven}
    assert p_crits == {-omega * a}  # one value for every undriven drive, of the sign of -a
    for sc in undriven:
        at_crit = wf.TunnelScenario(wf.GaussianPacket(a, -omega * a), omega, sc.drive)
        assert wf.asymptotic_probability(at_crit) == 0.5
        assert wf.classify_regime(sc) == ("supercritical" if p0 > -omega * a else "subcritical")
    driven = scenario(a=a, omega=omega, drive=wf.Cosine(0.4, -0.3, 1.1))
    at_crit = wf.TunnelScenario(wf.GaussianPacket(a, wf.critical_momentum(driven)), omega,
                                driven.drive)
    assert wf.asymptotic_probability(at_crit) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("a, p0, omega, hbar, t", [
    (-1e200, 0.0, 1e-200, 1e300, 1e5),  # hbar A ~ 4e310: P = 1, not the 1/2 of A = inf
    (0.0, 0.0, 1.0, 5e-324, 0.0),  # hbar A below the normal doubles: 0/0 at the centre
])
def test_survival_past_the_width_range_raises(a, p0, omega, hbar, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalConsistencyError, match="centre or width"):
            wf.survival_probability(scenario(a, p0, omega, hbar), t)


def test_survival_of_a_centre_many_widths_off_is_a_step():
    # z = v/sqrt(hbar A) ~ -1e350 leaves the double range: P is exactly 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wf.survival_probability(scenario(a=-1e200, p0=0.0, hbar=1e-300), 0.0) == 1.0


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan])
def test_asymptotic_time_rejects_an_omega_that_is_not_positive(omega):
    with pytest.raises(ConfigurationError):
        wf.asymptotic_time(omega)


def test_asymptotic_probability_at_an_indeterminate_critical_momentum_raises():
    # lam/(2 omega) and 2b/(Omega^2/omega + 4 omega) overflow with opposite signs: inf - inf
    sc = wf.TunnelScenario(wf.GaussianPacket(-3.0, 2.0), 1e-10, wf.Cosine(1e300, -1e300, 0.0))
    with pytest.raises(NumericalConsistencyError, match="critical momentum"):
        wf.asymptotic_probability(sc)
    with pytest.raises(NumericalConsistencyError, match="critical momentum"):
        wf.critical_momentum(sc)


def test_figure1_series_checks_its_parameters_once_for_any_number_of_packets(monkeypatch):
    import wignerflow.catalog
    import wignerflow.flow
    import wignerflow.tunneling

    checked = []

    def counting(check):
        def counted(*bound, **params):
            checked.append(params)
            return check(*bound, **params)
        return counted

    for module in (wignerflow.catalog, wignerflow.flow, wignerflow.tunneling):
        monkeypatch.setattr(module, "check_params", counting(module.check_params))
    counts = []
    for p0_list in ([0.5], list(np.linspace(0.0, 3.0, 40))):
        checked.clear()
        wf.figure1_series(-3.0, 1.0, 1.0, p0_list, np.linspace(0.0, 2.0, 5))
        counts.append(len(checked))
    assert counts[0] == counts[1]
    with pytest.raises(ConfigurationError, match="^p0 must be finite, got inf$"):
        wf.figure1_series(-3.0, 1.0, 1.0, [0.5, math.inf, math.nan], [1.0])

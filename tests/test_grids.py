"""Grid construction and validation."""

import math

import numpy as np
import pytest

import wignerflow as wf
from wignerflow.errors import ConfigurationError
from wignerflow.grids import fast_odd_length, is_natural_xi_grid


def test_grid_nodes_and_span():
    g = wf.Grid1D.from_span(-2.0, 2.0, 5)
    np.testing.assert_allclose(g.nodes(), [-2, -1, 0, 1, 2])
    assert g.x_max == 2.0


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        wf.Grid1D(0.0, -0.1, 10)
    with pytest.raises(ConfigurationError):
        wf.Grid1D(0.0, 0.1, 1)
    with pytest.raises(ConfigurationError):
        wf.Grid1D.from_span(1.0, 0.0, 10)


def test_xi_grid_must_be_symmetric():
    x = wf.Grid1D.symmetric(4.0, 33)
    with pytest.raises(ConfigurationError):
        wf.PhaseSpaceGrid(x, wf.Grid1D(0.0, 0.1, 11))
    ps = wf.PhaseSpaceGrid(x, wf.symmetric_xi_grid(3.0, 11))
    assert ps.shape == (33, 11)


def test_natural_grid_is_conjugate_lattice():
    x = wf.Grid1D.symmetric(5.0, 64)
    xi = wf.natural_xi_grid(x, 2.0)
    assert xi.count >= 2 * x.count - 1
    assert xi.count % 2 == 1
    assert xi.step * xi.count * x.step == pytest.approx(math.pi * 2.0, rel=1e-14)
    assert is_natural_xi_grid(x, 2.0, xi)
    assert not is_natural_xi_grid(x, 1.0, xi)


def test_fast_odd_length_is_seven_smooth():
    for m in (3, 100, 1023, 16385):
        n = fast_odd_length(m)
        assert n >= m and n % 2 == 1
        for p in (3, 5, 7):
            while n % p == 0:
                n //= p
        assert n == 1


@pytest.mark.parametrize("count", [10**400, 2**63], ids=["10**400", "2**63"])
@pytest.mark.parametrize("build", [
    lambda n: wf.Grid1D.from_span(-1.0, 1.0, n),
    lambda n: wf.Grid1D(0.0, 1.0, n).x_max,
    lambda n: wf.symmetric_xi_grid(5.0, n + 1),
    lambda n: wf.natural_xi_grid(wf.Grid1D(0.0, 1.0, 3), 1.0, n + 1),
], ids=["from_span", "x_max", "symmetric_xi_grid", "natural_xi_grid"])
def test_a_count_past_2_to_the_53_is_a_configuration_error(build, count):
    # past 2**53 a count no longer converts to a float exactly, and 10**400 not at all
    with pytest.raises(ConfigurationError, match=rf"^count must be an integer .*<= {2**53}, got"):
        build(count)

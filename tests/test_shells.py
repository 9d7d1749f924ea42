"""The oracle's t* against Dawson's charge shells (tests/shells.py), a route
that shares no dynamics with it, on ``breaking-sweep``'s grid: the Gaussian
pulse K = 0.45 on 48 radii in [0, 3] to t = 400, its radii 1-16 breaking.
Measured at oracle tol 1e-12: the 16 breaking radii agree to 1.4e-12
relative, and all 31 others with r0 > 0 on no breaking (the centre is
singular for the shells).
"""

import numpy as np
import pytest

from coldplasma.core_dynamics import gaussian_profile
from coldplasma.oracle import run_characteristic
from shells import shell_t_star

GRID = np.linspace(0.0, 3.0, 48).tolist()
T_MAX = 400.0


@pytest.fixture(scope="module")
def pulse():
    return gaussian_profile(0.45)


def test_breaking_radii_agree(pulse):
    # radius 14 (r0 = 0.8936) dips below 0 and back within one shell step:
    # a sign-change event alone reads 172.964 there
    for r0 in GRID[1:17]:
        exact = run_characteristic(pulse, r0, T_MAX, tol=1e-12).t_star
        assert exact is not None, r0
        assert abs(shell_t_star(pulse, r0, T_MAX) - exact) <= 1e-10 * exact, r0


@pytest.mark.parametrize("i", [17, 32, 47])
def test_radii_that_do_not_break(pulse, i):
    assert run_characteristic(pulse, GRID[i], T_MAX, tol=1e-12).t_star is None
    assert shell_t_star(pulse, GRID[i], T_MAX) is None

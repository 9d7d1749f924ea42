"""The oracle's t* against Dawson's charge shells (tests/shells.py), a route
that shares no dynamics with it.  On ``breaking-sweep``'s grid, the Gaussian
pulse K = 0.45 on 48 radii in [0, 3] to t = 400, its radii 1-16 break.
Measured at oracle tol 1e-12: the 16 breaking radii agree to 1.4e-12
relative, and all 31 others with r0 > 0 on no breaking (the centre is
singular for the shells); the seeded moving pulses to 1.8e-12, and the
README pulse to 3.9e-12.
"""

import random

import numpy as np
import pytest

from coldplasma.core_dynamics import gaussian_profile
from coldplasma.oracle import run_characteristic
from shells import shell_t_star
from test_oracle import moving_pulse

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


def seeded_moving_pulses():
    """One moving pulse per dimension d = 2, 3 from ``random.Random(1)``:
    K ~ U(0.6, 0.9)/d, |c| ~ U(0.4, 0.8) of either sign and the width
    w ~ U(0.6, 1.6), with its radii 0.2 w, 0.4 w, ..., w."""
    rng = random.Random(1)
    pulses = []
    for d in (2, 3):
        K, c = rng.uniform(0.6, 0.9) / d, rng.choice((-1.0, 1.0)) * rng.uniform(0.4, 0.8)
        w = rng.uniform(0.6, 1.6)
        pulses.append((moving_pulse(K, c, d, w), [w * x for x in (0.2, 0.4, 0.6, 0.8, 1.0)]))
    return pulses


@pytest.mark.parametrize("profile, radii", seeded_moving_pulses(), ids=["2d", "3d"])
def test_seeded_moving_pulses_agree(profile, radii):
    # the first four radii of each pulse break before t = 100, the fifth on neither route
    broken = 0
    for r0 in radii:
        exact, shell = run_characteristic(profile, r0, 100.0, tol=1e-12).t_star, shell_t_star(profile, r0, 100.0)
        assert (exact is None) == (shell is None), (r0, exact, shell)
        if exact is not None:
            broken += 1
            assert abs(shell - exact) <= 1e-10 * exact, r0
    assert broken == 4


def test_readme_pulse_agrees():
    # of the README sweep's grid (K = 0.222, r0 = 0, 0.2, ..., 3.0) only
    # r0 = 0.4 and 0.6 break before t = 1000, at 841.68 and 962.73
    pulse = gaussian_profile(0.222)
    for r0 in (0.4, 0.6):
        exact = run_characteristic(pulse, r0, 1000.0, tol=1e-12).t_star
        assert abs(shell_t_star(pulse, r0, 1000.0) - exact) <= 1e-10 * exact, r0

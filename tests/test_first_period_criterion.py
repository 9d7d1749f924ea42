"""The ``first-period`` criterion against the exact dynamics (ROADMAP item 11).

``criterion_first_period`` certifies bounded density over the first
oscillation.  Radial data are irrotational, so a start (lambda0, D0) that
satisfies it must not break within its characteristic's own period
T = period(F0, G0, d).  The profiles G0 + b (r**2 - 1) and
F0 + e (r**2 - 1), with b = (lambda0 - d G0)/2 and e = (D0 - d F0)/2, take
exactly the values (F0, G0, lambda0, D0) at r0 = 1.
"""

import random

import pytest

from coldplasma.chaplygin_bounds import criterion_first_period
from coldplasma.core_dynamics import RadialProfile, period
from coldplasma.oracle import run_characteristic
from shells import shell_t_star

# (lambda0, D0, F0, G0, d) of the two breaking starts ROADMAP item 11 names:
# t* = 0.42115 (0.070 T) and t* = 0.72125
_EXAMPLES = [(-0.23, -0.5563, 0.9484, -0.0426, 3), (-0.3878, -0.5896, 0.9748, -0.1797, 2)]


def _profile(lam0, D0, F0, G0, d):
    b, e = 0.5 * (lam0 - d * G0), 0.5 * (D0 - d * F0)
    return RadialProfile(G0=lambda r: G0 + b * (r * r - 1.0), F0=lambda r: F0 + e * (r * r - 1.0), d=d,
                         dG0=lambda r: 2.0 * b * r, dF0=lambda r: 2.0 * e * r)


def _starts(draws=300):
    """The examples, then seeded starts that satisfy the criterion: 300
    draws of (lambda0, D0) per d from one generator, each kept start with
    its (F0, G0)."""
    rng, starts = random.Random(1), list(_EXAMPLES)
    for d in (2, 3):
        for _ in range(draws):
            lam0, D0 = rng.uniform(-3.0, 0.25), rng.uniform(-0.6, 0.0)
            if criterion_first_period(D0, 0.0, lam0).satisfied:
                starts.append((lam0, D0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0 / d - 0.02), d))
    return starts


@pytest.mark.parametrize("example", _EXAMPLES)
def test_examples_break_where_the_shells_do(example):
    # Dawson's shells (tests/shells.py) share no dynamics with the oracle;
    # measured 6.9e-13 (d = 3) and 9.0e-12 (d = 2) relative
    F0, G0, d = example[2:]
    profile, t_max = _profile(*example), period(F0, G0, d)
    exact = run_characteristic(profile, 1.0, t_max, tol=1e-12).t_star
    assert exact is not None
    assert abs(shell_t_star(profile, 1.0, t_max) - exact) <= 1e-10 * exact


@pytest.mark.xfail(
    strict=True,
    reason="the first-period certificate is contradicted: of the admissible seeded starts "
    "that satisfy it, 4 of 110 (d = 2) and 17 of 65 (d = 3) break within their own "
    "period, as do both examples; the outcome depends on F0, which the criterion "
    "does not read (ROADMAP item 11)",
)
def test_certified_starts_do_not_break_within_their_period():
    broken = []
    for lam0, D0, F0, G0, d in _starts():
        assert criterion_first_period(D0, 0.0, lam0).satisfied
        try:
            profile = _profile(lam0, D0, F0, G0, d)
        except ValueError:        # lambda0(r) >= 1 somewhere on [0, 6]
            continue
        t_star = run_characteristic(profile, 1.0, period(F0, G0, d), tol=1e-11).t_star
        if t_star is not None:
            broken.append((lam0, D0, F0, G0, d, t_star))
    assert not broken, broken

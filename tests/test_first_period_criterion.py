"""The ``first-period`` criterion against the exact dynamics (ROADMAP item 11).

``criterion_first_period`` certifies bounded density over the first
oscillation.  Radial data are irrotational, so a start (lambda0, D0) that
satisfies it must not break within its characteristic's own period
T = period(F0, G0, d).  The profiles G0 + b (r**2 - 1) and
F0 + e (r**2 - 1), with b = (lambda0 - d G0)/2 and e = (D0 - d F0)/2, take
exactly the values (F0, G0, lambda0, D0) at r0 = 1.

The criterion is the anchor condition of the irrotational quartic
Z1 = A4 s**4 - (2/3) s - 1/2, which solves dZ/ds = 2 (2Z + s + 1)/s
(``references.q_quartic``) in s = lambda - 1 < 0.  The exact Z = D**2
obeys dZ/ds = 2 (Z + s + 1 - 2J)/s, so on a descent (D < 0, s falling)
the quartic lies above Z only where its premise Z + 2J >= 0 holds; in
radial symmetry that reads (D + (d-1) F)**2 >= (d-1)(2d-1) F**2.
"""

import functools
import random

import numpy as np
import pytest

from coldplasma.chaplygin_bounds import criterion_first_period
from coldplasma.core_dynamics import RadialProfile, period
from coldplasma.oracle import run_characteristic
from references import j_exact_radial
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


@functools.lru_cache(maxsize=None)
def _runs():
    """Each start of :func:`_starts` whose profile is admissible, with its
    run at tol 1e-11 over its own period."""
    runs = []
    for start in _starts():
        F0, G0, d = start[2:]
        try:
            profile = _profile(*start)
        except ValueError:        # lambda0(r) >= 1 somewhere on [0, 6]
            continue
        runs.append((start, run_characteristic(profile, 1.0, period(F0, G0, d), tol=1e-11)))
    return runs


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
    assert all(criterion_first_period(D0, 0.0, lam0).satisfied for lam0, D0, *_ in _starts())
    broken = [(*start, run.t_star) for start, run in _runs() if run.t_star is not None]
    assert not broken, broken


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the irrotational quartic's premise Z + 2J >= 0 fails on the first descent of "
    "all 177 admissible starts (111 d = 2, 66 d = 3; least slack -8.16 to -5.3e-5), and at "
    "t = 0 on 130 of them, among them all 23 that break within their period: on radial "
    "data the quartic is not a comparison curve (ROADMAP items 11(b) and 16(a))",
)
def test_quartic_premise_holds_on_the_first_descent():
    # the first descent runs from t = 0 (every start has D0 <= 0) to the
    # first crossing D = 0, or to the trajectory's end where none comes
    # first; measured at the d = 3 example, (D + 2F)**2 = 1.80 against
    # 10 F**2 = 9.00 at t = 0
    failed = []
    for start, run in _runs():
        traj, d = run.trajectory, start[4]
        end = run.crossing_times[0] if run.crossing_times.size else traj.t[-1]
        F, _, _, D, _ = traj(np.linspace(0.0, end, 401))
        slack = D * D + 2.0 * j_exact_radial(F, D, d)
        assert np.all(D[:-1] <= 0.0), start
        if slack.min() < 0.0:
            failed.append((*start, float(slack[0]), float(slack.min())))
    assert len(_runs()) == 177 and not failed, (len(failed), failed[:3])

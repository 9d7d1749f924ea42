"""The ``first-period`` criterion against the exact dynamics (ROADMAP item 11).

``criterion_first_period`` certifies bounded density over the first
oscillation.  Radial data are irrotational, so a start (lambda0, D0) that
satisfies it must not break within its characteristic's own period
T = period(F0, G0, d).  The profiles G0 + b (r**2 - 1) and
F0 + e (r**2 - 1), with b = (lambda0 - d G0)/2 and e = (D0 - d F0)/2, take
exactly the values (F0, G0, lambda0, D0) at r0 = 1.  The starts and their
runs are those of ``tests/census.py``, one set for both.

The criterion is the anchor condition of the irrotational quartic
Z1 = A4 s**4 - (2/3) s - 1/2, which solves dZ/ds = 2 (2Z + s + 1)/s
(``references.q_quartic``) in s = lambda - 1 < 0.  The exact Z = D**2
obeys dZ/ds = 2 (Z + s + 1 - 2J)/s, so on a descent (D < 0, s falling)
the quartic lies above Z only where its premise Z + 2J >= 0 holds; in
radial symmetry that reads (D + (d-1) F)**2 >= (d-1)(2d-1) F**2.
"""

import numpy as np
import pytest

from coldplasma.chaplygin_bounds import criterion_first_period
from coldplasma.core_dynamics import period
from coldplasma.oracle import run_characteristic
from census import FIRST_PERIOD_EXAMPLES, first_period_profile, first_period_runs, first_period_starts
from references import j_exact_radial
from shells import shell_t_star


@pytest.mark.parametrize("example", FIRST_PERIOD_EXAMPLES)
def test_examples_break_where_the_shells_do(example):
    # Dawson's shells (tests/shells.py) share no dynamics with the oracle;
    # measured 6.9e-13 (d = 3) and 9.0e-12 (d = 2) relative
    F0, G0, d = example[2:]
    profile, t_max = first_period_profile(*example), period(F0, G0, d)
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
    assert all(criterion_first_period(D0, 0.0, lam0).satisfied for lam0, D0, *_ in first_period_starts())
    broken = [(*start, run.t_star) for start, run in first_period_runs() if run.t_star is not None]
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
    for start, run in first_period_runs():
        traj, d = run.trajectory, start[4]
        end = run.crossing_times[0] if run.crossing_times.size else traj.t[-1]
        F, _, _, D, _ = traj(np.linspace(0.0, end, 401))
        slack = D * D + 2.0 * j_exact_radial(F, D, d)
        assert np.all(D[:-1] <= 0.0), start
        if slack.min() < 0.0:
            failed.append((*start, float(slack[0]), float(slack.min())))
    assert len(first_period_runs()) == 177 and not failed, (len(failed), failed[:3])

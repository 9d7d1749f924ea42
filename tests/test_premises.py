"""Premise audit: the radial sigma families against the exact dynamics
(ROADMAP item 16(a)).

Along a characteristic, Z = D**2 obeys dZ/ds = 2 (Z + s + 1 - 2J)/s in
s = lambda - 1 < 0.  A sigma curve solves a comparison ODE,
``references.q_sigma``, in which a bound on J stands in for J, so it
bounds Z only where its rhs stays on one side of the true one: its
premise.  With b = sigma**2, and the slack written so that the premise is
slack >= 0:

- sigma2 ("upper"), rhs above the true one: b Z + K - 2J, with
  K = ``_upper_j_bound``(b, F+, d);
- sigma1 ("lower"), rhs below it: b Z + (d-1)**2 F+**2/b + 2J.

Either slack is |s| (q_sigma - q)/2 on the upper side and |s| (q - q_sigma)/2
on the lower, q the true rhs; this module reads it so, from the exact
radial J (``references.j_exact_radial``) and the orbit's F+.  A curve whose
rhs lies above the true one lies below Z on a descent (D < 0, where s
decreases) and above it on an ascent.

The cases are the d = 2 Gaussian pulses at K = 0.05, 0.1, 0.222, 0.3 and
0.45, each at 31 radii in [0, 3], and five seeded moving pulses
(``test_oracle.moving_pulse``: F0 = c exp(-r**2) beside G0 = K exp(-r**2))
in each of d = 2 and 3, each at 11 radii in [0, 2.5], each at tol 1e-11
over two periods of its orbit, and the 177 admissible starts of ROADMAP
item 11 (``test_first_period_criterion``), each over its own period at
tol 1e-11; a run that breaks first ends where lambda reaches -d_cap.
Each run has 800 samples.  sigma2's premise and direction hold on all 442
runs; sigma1's premise fails off the centre and on 27 of item 11's starts,
so its test is a strict xfail with the measured slack.  With the Young
bound K of ``_upper_j_bound`` in place of (d-1)**2 F+**2/b (ROADMAP item
16(b)), it holds.
"""

import functools
import random

import numpy as np
import pytest

from coldplasma.chaplygin_bounds import Side, _upper_j_bound, sigma_curve
from coldplasma.core_dynamics import gaussian_profile, orbit_extremes, period
from coldplasma.oracle import run_characteristic
from coldplasma.pulse_analysis import DEFAULT_SIGMA1, DEFAULT_SIGMA2
from references import j_exact_radial, q_sigma
from test_first_period_criterion import _runs as first_period_runs
from test_oracle import moving_pulse

KS = (0.05, 0.1, 0.222, 0.3, 0.45)
MOVING = {"moving-2d": 2, "moving-3d": 3}   # case: dimension
FIRST_PERIOD = "first-period"   # ROADMAP item 11's starts, over their own period
CASES = (*KS, *MOVING, FIRST_PERIOD)
RADII = np.linspace(0.0, 3.0, 31).tolist()
MOVING_RADII = np.linspace(0.0, 2.5, 11).tolist()
SAMPLES = 800        # per run, over its whole trajectory
ARC_SAMPLES = 200    # per arc between crossings, its ends left out

# sigma1's premise, measured: on the Gaussian pulses the radii of 31 where
# it fails, and its worst slack with the radius; on the moving pulses and
# item 11's starts the runs where it fails, and its worst slack with its
# pulse and radius or its start
SIGMA1_FAILS = {
    0.05: ("r0 = 1.3-2.0 of 31 radii", -4.47e-5, "r0 = 1.4"),
    0.1: ("r0 = 1.3-2.1 of 31 radii", -1.67e-4, "r0 = 1.4"),
    0.222: ("r0 = 1.4-2.1 of 31 radii", -7.07e-4, "r0 = 1.5"),
    0.3: ("r0 = 1.4-2.1 of 31 radii", -1.22e-3, "r0 = 1.5"),
    0.45: ("r0 = 0.2, 0.4 and 1.4-2.1 of 31 radii", -73.9, "r0 = 0.2"),
    "moving-2d": ("15 of 55 runs (r0 = 1.5-2.0)", -3.36e-3, "K = 0.385, c = 0.358, r0 = 1.5"),
    "moving-3d": ("16 of 55 runs (r0 = 1.75-2.5)", -1.85e-4, "K = 0.175, c = -0.348, r0 = 2.0"),
    FIRST_PERIOD: ("27 of 177 runs (24 of 111 in d = 2, 3 of 66 in d = 3)", -3.31,
                   "lambda0 = -0.712, D0 = -0.111, F0 = 0.928, G0 = -0.0925, d = 2"),
}


def moving_draws(d, n=5):
    """``n`` seeded (K, c) of moving pulses in dimension d: K ~ U(0.05,
    0.9/d - 0.05), c ~ U(-0.4, 0.4)."""
    rng = random.Random(d)
    return [(rng.uniform(0.05, 0.9 / d - 0.05), rng.uniform(-0.4, 0.4)) for _ in range(n)]


@functools.lru_cache(maxsize=None)
def case_runs(case):
    """The runs of a case, each as (where, run, the orbit's F+): over two
    periods of their orbit the K pulse's at each radius of ``RADII``, or
    each moving pulse's of ``moving_draws`` at each radius of
    ``MOVING_RADII``; over one, those of item 11's starts
    (``test_first_period_criterion._runs``), where is the start."""
    if case == FIRST_PERIOD:
        return [(start, run, orbit_extremes(F0, G0, d).F_plus)
                for start, run in first_period_runs() for F0, G0, d in [start[2:]]]
    if case in MOVING:
        d = MOVING[case]
        pulses = [((K, c), moving_pulse(K, c, d), MOVING_RADII) for K, c in moving_draws(d)]
    else:
        pulses = [((), gaussian_profile(case), RADII)]
    runs = []
    for key, profile, radii in pulses:
        for r0 in radii:
            F0, G0 = profile.F0(r0), profile.G0(r0)
            run = run_characteristic(profile, r0, 2.0 * period(F0, G0, profile.d), tol=1e-11)
            runs.append(((*key, r0), run, orbit_extremes(F0, G0, profile.d).F_plus))
    return runs


def least_slack(case, side, sigma, j_term=None):
    """The least premise slack of a sigma family on each run of a case, as
    (where, slack), from ``SAMPLES`` times over its trajectory.
    ``j_term(b, F+, d)``, where given, replaces the lower family's
    (d-1)**2 F+**2/b."""
    least = []
    for where, run, f_plus in case_runs(case):
        traj, d = run.trajectory, run.d
        F, _, lam, D, _ = traj(np.linspace(0.0, traj.t[-1], SAMPLES))
        s, Z, J = lam - 1.0, D * D, j_exact_radial(F, D, d)
        q = 2.0 * (Z + s + 1.0 - 2.0 * J) / s
        if side is Side.UPPER:
            slack = -s * (q_sigma(side, s, Z, sigma, f_plus, d) - q) / 2.0
        elif j_term is None:
            slack = -s * (q - q_sigma(side, s, Z, sigma, f_plus, d)) / 2.0
        else:
            b = sigma * sigma
            slack = b * Z + j_term(b, f_plus, d) + 2.0 * J
        least.append((where, float(slack.min())))
    return least


@pytest.mark.parametrize("case", CASES)
def test_sigma2_premise_holds(case):
    # the least slack is 1.2e-10 to 9.6e-9 on the Gaussian pulses, at
    # r0 = 3, where F+ and Z are of that order, 8.9e-7 (d = 2) and
    # 4.2e-7 (d = 3) on the moving ones, at r0 = 2.5, and 0.051 on item
    # 11's starts
    least = least_slack(case, Side.UPPER, DEFAULT_SIGMA2)
    assert min(x for _, x in least) >= 0.0, [(w, x) for w, x in least if x < 0.0]


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        f"sigma1's premise fails at {where}; worst slack {worst:.3g} at {at}")))
    for case, (where, worst, at) in SIGMA1_FAILS.items()])
def test_sigma1_premise_holds(case):
    least = least_slack(case, Side.LOWER, DEFAULT_SIGMA1)
    assert min(x for _, x in least) >= 0.0, [(w, x) for w, x in least if x < 0.0]


@pytest.mark.parametrize("case", CASES)
def test_sigma1_premise_holds_with_the_young_term(case):
    # -2J <= b Z + K by Young's inequality with |F| <= F+, K the upper
    # family's bound at sigma1's b; the least slack on the moving pulses is
    # 3.0e-7 (d = 2) and 2.5e-8 (d = 3), and 4.3e-5 on item 11's starts
    least = least_slack(case, Side.LOWER, DEFAULT_SIGMA1, j_term=_upper_j_bound)
    assert min(x for _, x in least) >= 0.0, [(w, x) for w, x in least if x < 0.0]


@pytest.mark.parametrize("case", CASES)
def test_sigma2_lies_below_z_on_descents_and_above_on_ascents(case):
    # the sigma2 curve anchored at each arc's start on the trajectory with
    # the orbit's F+, on every arc between crossings and the last one to
    # the trajectory's end; measured: to 4.9e-15 of max(1, max Z) on the
    # arc on the Gaussian pulses, with no escape on the moving ones nor on
    # the 512 arcs of item 11's starts.  The first arc is anchored at the
    # trajectory's start, which reads the exact start data: at d = 2,
    # r0 = 1 a moving pulse starts at lambda0 = D0 = 0, where a trajectory
    # that read about 1e-12 for both logged a crossing 5e-12 to 3e-10 after
    # t = 0 and put Z up to 2.75e-13 on the wrong side of a curve anchored
    # at the exact data (on the sixth draw of d = 2, K = 0.2534,
    # c = -0.2733)
    arcs = 0
    for where, run, f_plus in case_runs(case):
        traj = run.trajectory
        stops = [0.0, *run.crossing_times.tolist(), float(traj.t[-1])]
        for k in range(len(stops) - 1):
            lam_a, D_a = traj(stops[k])[2:4] if k == 0 else (traj(stops[k])[2], 0.0)
            curve = sigma_curve(Side.UPPER, lam_a - 1.0, D_a * D_a, DEFAULT_SIGMA2, f_plus, run.d)
            _, _, lam, D, _ = traj(np.linspace(stops[k], stops[k + 1], ARC_SAMPLES + 2)[1:-1])
            Z, upper = D * D, curve.value(lam - 1.0)
            descent = D[0] < 0.0
            assert np.all((D < 0.0) == descent), (where, k)
            escape = (upper - Z) if descent else (Z - upper)
            assert escape.max() <= 1e-13 * max(1.0, Z.max()), (where, k, escape.max())
            arcs += 1
    assert arcs >= (2 if case == FIRST_PERIOD else 3) * len(case_runs(case))

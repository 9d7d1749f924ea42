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
0.45, each at 31 radii in [0, 3], run at tol 1e-11 over two periods of
their orbit (to where lambda reaches -d_cap, where a run breaks first),
with 800 samples a run.  sigma2's premise and direction hold on all 155
runs; sigma1's premise fails off the centre, so its test is a strict
xfail with the measured slack.  With the Young bound K of ``_upper_j_bound``
in place of (d-1)**2 F+**2/b (ROADMAP item 16(b)), it holds.
"""

import functools

import numpy as np
import pytest

from coldplasma.chaplygin_bounds import Side, _upper_j_bound, sigma_curve
from coldplasma.core_dynamics import gaussian_profile, orbit_extremes, period, profile_divergences
from coldplasma.oracle import run_characteristic
from coldplasma.pulse_analysis import DEFAULT_SIGMA1, DEFAULT_SIGMA2
from references import j_exact_radial, q_sigma

KS = (0.05, 0.1, 0.222, 0.3, 0.45)
RADII = np.linspace(0.0, 3.0, 31).tolist()
SAMPLES = 800        # per run, over its whole trajectory
ARC_SAMPLES = 200    # per arc between crossings, its ends left out

# sigma1's premise, measured: the radii of 31 where it fails, and its worst
# slack with the radius
SIGMA1_FAILS = {
    0.05: ("1.3-2.0", -4.47e-5, 1.4),
    0.1: ("1.3-2.1", -1.67e-4, 1.4),
    0.222: ("1.4-2.1", -7.07e-4, 1.5),
    0.3: ("1.4-2.1", -1.22e-3, 1.5),
    0.45: ("0.2, 0.4 and 1.4-2.1", -73.9, 0.2),
}


@functools.lru_cache(maxsize=None)
def pulse_runs(K):
    """The K pulse's run at each radius over two periods, with the orbit's F+."""
    profile, runs = gaussian_profile(K), []
    for r0 in RADII:
        F0, G0 = profile.F0(r0), profile.G0(r0)
        run = run_characteristic(profile, r0, 2.0 * period(F0, G0, profile.d), tol=1e-11)
        runs.append((run, orbit_extremes(F0, G0, profile.d).F_plus))
    return runs


def least_slack(K, side, sigma, j_term=None):
    """The least premise slack of a sigma family on each run of the K pulse,
    from ``SAMPLES`` times over its trajectory.  ``j_term(b, F+, d)``, where
    given, replaces the lower family's (d-1)**2 F+**2/b."""
    least = []
    for run, f_plus in pulse_runs(K):
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
        least.append(float(slack.min()))
    return least


@pytest.mark.parametrize("K", KS)
def test_sigma2_premise_holds(K):
    # the least slack is 1.2e-10 to 9.6e-9, at r0 = 3, where F+ and Z are
    # of that order
    least = least_slack(K, Side.UPPER, DEFAULT_SIGMA2)
    assert min(least) >= 0.0, [(r0, x) for r0, x in zip(RADII, least) if x < 0.0]


@pytest.mark.parametrize("K", [
    pytest.param(K, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        f"sigma1's premise fails at r0 = {where} of 31 radii; worst slack {worst:.3g} "
        f"at r0 = {r0}")))
    for K, (where, worst, r0) in SIGMA1_FAILS.items()])
def test_sigma1_premise_holds(K):
    least = least_slack(K, Side.LOWER, DEFAULT_SIGMA1)
    assert min(least) >= 0.0, [(r0, x) for r0, x in zip(RADII, least) if x < 0.0]


@pytest.mark.parametrize("K", KS)
def test_sigma1_premise_holds_with_the_young_term(K):
    # -2J <= b Z + K by Young's inequality with |F| <= F+, K the upper
    # family's bound at sigma1's b
    least = least_slack(K, Side.LOWER, DEFAULT_SIGMA1, j_term=_upper_j_bound)
    assert min(least) >= 0.0, [(r0, x) for r0, x in zip(RADII, least) if x < 0.0]


@pytest.mark.parametrize("K", KS)
def test_sigma2_lies_below_z_on_descents_and_above_on_ascents(K):
    # the sigma2 curve anchored at each arc's start with the orbit's F+,
    # on every arc between crossings and the last one to the trajectory's
    # end; measured: to 4.5e-15 of max(1, max Z) on the arc
    profile, arcs = gaussian_profile(K), 0
    for r0, (run, f_plus) in zip(RADII, pulse_runs(K)):
        traj = run.trajectory
        stops = [0.0, *run.crossing_times.tolist(), float(traj.t[-1])]
        lam_a, D_a = profile_divergences(profile, r0)
        for k in range(len(stops) - 1):
            if k:
                lam_a, D_a = traj(stops[k])[2], 0.0
            curve = sigma_curve(Side.UPPER, lam_a - 1.0, D_a * D_a, DEFAULT_SIGMA2, f_plus, run.d)
            _, _, lam, D, _ = traj(np.linspace(stops[k], stops[k + 1], ARC_SAMPLES + 2)[1:-1])
            Z, upper = D * D, curve.value(lam - 1.0)
            descent = D[0] < 0.0
            assert np.all((D < 0.0) == descent), (r0, k)
            escape = (upper - Z) if descent else (Z - upper)
            assert escape.max() <= 1e-13 * max(1.0, Z.max()), (r0, k, escape.max())
            arcs += 1
    assert arcs >= 31 * 3

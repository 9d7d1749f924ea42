"""The certificate census: each printed certificate against the exact oracle.

Every output is classified as

- ``agrees``: the exact dynamics bear the certificate out;
- ``contradicted``: the exact dynamics contradict it;
- ``not covered``: it certifies nothing there (no revolution, say).

The outputs it holds:

- ``lifetime`` at the pulse centre, as the CLI builds it: the spirals from
  (2K, 0) with ``f_plus=None``, the default sigma pair and ``max_rev`` 16.
  The centre characteristic of a d = 2 pulse at rest runs on the orbit
  through (F, G) = (0, K) with lambda = 2G, so its n revolutions take
  exactly n ``period(0, K, 2)``; a ``T_lower`` above that is contradicted.
  A K that certifies no revolution is not covered.
- ``criterion_1d`` as the control: its verdict (D0^2 + 2 lambda0 - 1 < 0,
  smooth for all time) against the closed-form oracle, on seeded d = 1
  starts off the critical line.
- ``first_period``: ``criterion_first_period`` on the admissible starts of
  :func:`first_period_starts` (ROADMAP item 11), which all satisfy it.  A
  start is contradicted when its run breaks within its own period
  T = period(F0, G0, d).  ``tests/test_first_period_criterion.py`` and
  ``tests/test_premises.py`` read the same runs.
- ``gauss_pulse``: ``classify_pulse`` against whether any radius of
  ``GAUSS_PULSE_RADII`` breaks within its own period(0, G0(r0), 2).  A
  smooth verdict is contradicted where one does, a blow-up verdict where
  none does; an indeterminate one is not covered.

``tests/test_census.py`` pins the contradicted counts.  Run this file to
print the table: ``PYTHONPATH=src python tests/census.py``.
"""

import functools
import math
import random
from typing import NamedTuple

import numpy as np

from coldplasma.chaplygin_bounds import criterion_1d, criterion_first_period
from coldplasma.core_dynamics import RadialProfile, constant_profile, gaussian_profile, period
from coldplasma.oracle import run_characteristic
from coldplasma.pulse_analysis import PulseVerdict, classify_pulse
from coldplasma.spiral_counter import build_spiral, lifetime

LIFETIME_K = (0.02, 0.05, 0.08, 0.1, 0.12, 0.15, 0.18, 0.2, 0.222, 0.25, 0.29, 0.35, 0.4, 0.45)
CRITERION_1D_STARTS, CRITERION_1D_SEED = 300, 20
GAUSS_PULSE_K = (0.05, 0.1, 0.15, 0.2, 0.25, 0.29, 0.3, 0.35, 0.4, 0.45, 0.46, 0.48, 0.49)
GAUSS_PULSE_RADII = np.linspace(0.0, 0.6, 31).tolist()

# (lambda0, D0, F0, G0, d) of the two breaking starts ROADMAP item 11 names:
# t* = 0.42115 (0.070 T) and t* = 0.72125
FIRST_PERIOD_EXAMPLES = [(-0.23, -0.5563, 0.9484, -0.0426, 3), (-0.3878, -0.5896, 0.9748, -0.1797, 2)]


class Row(NamedTuple):
    """One certificate, what it prints, the exact value and its class."""

    output: str
    case: str
    printed: object
    exact: object
    verdict: str


def lifetime_rows():
    """``lifetime`` at the centre of the d = 2 Gaussian pulse of each K."""
    rows = []
    for K in LIFETIME_K:
        inner, outer = (build_spiral(kind, (2.0 * K, 0.0), None, d=2, max_rev=16) for kind in ("inner", "outer"))
        est = lifetime(inner, outer)
        exact = est.revolutions * period(0.0, K, 2)
        if est.revolutions == 0:
            verdict = "not covered"
        else:
            verdict = "contradicted" if est.T_lower > exact else "agrees"
        rows.append(Row("lifetime", f"K={K} n={est.revolutions}", est.T_lower, exact, verdict))
    return rows


def criterion_1d_rows():
    """``criterion_1d`` on seeded d = 1 starts, F0 ~ U(-1.5, 1.5) and
    G0 ~ U(-1.5, 0.95) with |Delta| > 1e-9, against whether the oracle's
    run breaks at all (t_max = inf)."""
    rng, rows = random.Random(CRITERION_1D_SEED), []
    while len(rows) < CRITERION_1D_STARTS:
        F0, G0 = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 0.95)
        run = run_characteristic(constant_profile(F0, G0, 1), 1.0, math.inf)
        lam0, D0 = run.start[:2]
        verdict = criterion_1d(D0, lam0)
        if abs(verdict.value) <= 1e-9:
            continue
        smooth = run.t_star is None
        rows.append(Row("criterion_1d", f"F0={F0:.4f} G0={G0:.4f}", verdict.satisfied, smooth,
                        "agrees" if verdict.satisfied == smooth else "contradicted"))
    return rows


def first_period_profile(lam0, D0, F0, G0, d):
    """G0 + b (r**2 - 1) and F0 + e (r**2 - 1), b = (lambda0 - d G0)/2 and
    e = (D0 - d F0)/2: exactly (F0, G0, lambda0, D0) at r0 = 1."""
    b, e = 0.5 * (lam0 - d * G0), 0.5 * (D0 - d * F0)
    return RadialProfile(G0=lambda r: G0 + b * (r * r - 1.0), F0=lambda r: F0 + e * (r * r - 1.0), d=d,
                         dG0=lambda r: 2.0 * b * r, dF0=lambda r: 2.0 * e * r)


def first_period_starts(draws=300):
    """The examples, then seeded starts that satisfy the criterion: 300
    draws of (lambda0, D0) per d from one generator, each kept start with
    its (F0, G0)."""
    rng, starts = random.Random(1), list(FIRST_PERIOD_EXAMPLES)
    for d in (2, 3):
        for _ in range(draws):
            lam0, D0 = rng.uniform(-3.0, 0.25), rng.uniform(-0.6, 0.0)
            if criterion_first_period(D0, 0.0, lam0).satisfied:
                starts.append((lam0, D0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0 / d - 0.02), d))
    return starts


@functools.lru_cache(maxsize=None)
def first_period_runs():
    """Each start of :func:`first_period_starts` whose profile is
    admissible, with its run at tol 1e-11 over its own period."""
    runs = []
    for start in first_period_starts():
        F0, G0, d = start[2:]
        try:
            profile = first_period_profile(*start)
        except ValueError:        # lambda0(r) >= 1 somewhere on [0, 6]
            continue
        runs.append((start, run_characteristic(profile, 1.0, period(F0, G0, d), tol=1e-11)))
    return runs


def first_period_rows():
    """``criterion_first_period`` on each admissible start, against its
    run's t* within its own period."""
    rows = []
    for (lam0, D0, F0, G0, d), run in first_period_runs():
        satisfied = criterion_first_period(D0, 0.0, lam0).satisfied
        smooth = run.t_star is None
        rows.append(Row("first_period", f"d={d} lam0={lam0:.4f} D0={D0:.4f}", satisfied, run.t_star,
                        "agrees" if satisfied == smooth else "contradicted"))
    return rows


def gauss_pulse_rows():
    """``classify_pulse`` of each K, against the number of radii that
    break within their own period at tol 1e-10."""
    rows = []
    for K in GAUSS_PULSE_K:
        profile = gaussian_profile(K)
        broken = sum(run_characteristic(profile, r0, period(0.0, profile.G0(r0), 2), tol=1e-10).t_star is not None
                     for r0 in GAUSS_PULSE_RADII)
        verdict = classify_pulse(K)
        if verdict is PulseVerdict.INDETERMINATE:
            cls = "not covered"
        else:
            cls = "agrees" if (verdict is PulseVerdict.BLOW_UP_FIRST_PERIOD) == (broken > 0) else "contradicted"
        rows.append(Row("gauss_pulse", f"K={K}", verdict.value, broken, cls))
    return rows


def census():
    return lifetime_rows() + criterion_1d_rows() + first_period_rows() + gauss_pulse_rows()


def counts(rows):
    """{output: {class: count}} over ``rows``."""
    out = {}
    for row in rows:
        by_class = out.setdefault(row.output, {"agrees": 0, "contradicted": 0, "not covered": 0})
        by_class[row.verdict] += 1
    return out


def _cell(x):
    return f"{x:.6f}" if isinstance(x, float) else str(x)


def main():
    """Print every lifetime and gauss_pulse row and every other row that
    is not borne out, then the counts per output."""
    rows = census()
    print(f"{'output':<14}{'case':<32}{'printed':>22}{'exact':>12}  class")
    for row in rows:
        if row.output in ("lifetime", "gauss_pulse") or row.verdict != "agrees":
            print(f"{row.output:<14}{row.case:<32}{_cell(row.printed):>22}{_cell(row.exact):>12}  {row.verdict}")
    print()
    for output, by_class in counts(rows).items():
        print(f"{output:<14}" + ", ".join(f"{n} {c}" for c, n in by_class.items()))


if __name__ == "__main__":
    main()
